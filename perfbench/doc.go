// Command perfbench is the repository's benchmark: four closed-loop
// workloads driven through the public entry points of the serving
// stack and the library, every answer checked against an independent
// oracle, every metric printed by name with its unit and sample count.
//
// # Running
//
// From the root of a checkout (BENCHMARK.json names this command):
//
//	bash perfbench/run.sh --workload index --seed 1 --seconds 10 --trace 0
//
// run.sh builds the package with its build cache under .bench_build/
// and runs it. From this directory, go run works too:
//
//	go run . --workload all --seed 7 --seconds 10
//
// Flags: -workload (wire, index, rows, minplus, or all), -seed (the
// inputs are a function of it), -seconds (request time measured per
// workload), -trace (0 or 1, below), -trace-dir (where traced runs
// write their spans; default .bench_build/traces). The last line of
// standard output is one JSON object: correct, attempted, failed, and
// the metrics. A wrong answer exits 1 without that line.
//
// # Run conditions
//
// Every workload is a closed loop with one client goroutine: callers of
// this library and service wait for their reply, and one client is the
// load shape that repeats on a small machine (two clients swing p50 by
// 10–25 % between runs on two cores). GOMAXPROCS keeps its default; the
// serving pool has one worker per GOMAXPROCS on the native backend,
// with the default admission front. The PRAM and hypercube simulators
// are the paper's reproduction and the oracle; they are costed in
// simulated steps by internal/checkbounds, not in wall time, and stay
// out of this benchmark. The run header prints the seed, nproc,
// GOMAXPROCS, Go version, backend, pool width, client count, and each
// workload's input sizes.
//
// # Workloads
//
//   - wire: keep-alive HTTP over loopback to an in-process httpfront
//     server (httpfront → admit → serve). Pre-encoded POST /v1/query
//     bodies with 64x64 dense inputs; three of every four are
//     row-minima, every fourth staircase-row-minima with null entries;
//     32 inputs round-robin. JSON decoding is most of a request here,
//     so only httpfront changes show up on this workload.
//   - index: DriverPool.Do with SubmatrixMax and 64-row RangeRowMinima
//     requests, alternating, round-robin over 4 indexes of implicit
//     4096x4096 Monge arrays built in setup. A direct index call is a
//     few microseconds, so the admit → serve handoff is most of each
//     request: per-request overhead shows here first. The index builds
//     are the writes beside these reads (setup_s, mindex.build_ms).
//   - rows: DriverPool.Do round-robin over row minima (256x256),
//     staircase row minima (160x160) and tube maxima (32x32x32) on 64
//     implicit (Func-backed) convex-gap inputs. The only workload that
//     goes through serve's tile caches, batch.Driver, and the native and
//     SMAWK row kernels on the served path.
//   - minplus: monge.MinPlus on 512x512 convex-gap factors (gap penalty
//     g²/16, about ten witness runs per product row), cycling over 4
//     pairs. The library path: minplus, the native fan-out on
//     exec.Default, and smawk do all the work; pool, front and wire
//     do none.
//
// One cost class per histogram: within a workload no two request kinds
// differ in median service time by more than 2x (the rows sizes are
// chosen for it), so a latency percentile describes one population and
// not the boundary between two.
//
// # End-to-end metrics (-trace 0)
//
//	throughput_qps   requests (products for minplus) per second of request time
//	latency_p50_ms   median latency
//	latency_tail_ms  p99 for wire, index and rows; p90 for minplus, whose
//	                 runs hold too few products for a p99
//	setup_s          median of 3 to 9 stack constructions (more when
//	                 they are cheap): pool, server, index builds, warm-up
//	                 requests; inputs and oracle answers are excluded
//	heap_mb          live heap after runtime.GC() at the end of the timed phase
//
// The report also prints error_rate, failed over attempted requests
// (non-2xx responses, Result.Err, typed rejections); the result line
// carries it as failed and attempted. A wrong answer is not a failure:
// it aborts the run.
//
// Answers are held and checked in batches with the clock stopped:
// against the brute-force row minima, staircase row minima and tube
// maxima (wire, rows); against the direct index call for every answer,
// with SubmatrixMaxBrute and brute-force row minima on a fixed sample of
// rectangles and row ranges after each build (index); and
// against the naive product's exact run count and leftmost witnesses on
// every eighth row (minplus). Before timing, each run issues warm-up
// requests (counted in setup_s) and calls runtime.GC().
//
// # Traced run (-trace 1)
//
// A traced run first runs the untraced loop for half the time (the
// runtime counters, the tile-cache ratio, and the baseline of
// trace.overhead_pct), then replays requests layer by layer for the
// other half. Each replayed request opens a client span; every call
// the benchmark makes into a layer is a span whose parent is that
// client span, and all spans of a request share its id. The spans are
// kept in memory and written at exit as Chrome trace_event JSON to
// -trace-dir. Each per-layer metric is the median over the replayed
// requests; self times are differences of spans of the same request.
// A layer the workload does not reach reads 0.
//
//	metric                   measured as                                  moves (workload)
//	httpfront.decode_us      json.Unmarshal of the body into QueryRequest latency_p50_ms, throughput_qps (wire)
//	httpfront.handler_us     handler wrapping Server.Handler()            latency_p50_ms (wire)
//	httpfront.encode_us      json.Marshal of the QueryResponse            latency_p50_ms (wire)
//	wire.transport_us        client round trip − handler                  latency_p50_ms (wire)
//	wire.request_kb          body size, exact                             context for wire
//	admit.do_us              Front.Do on the same query                   latency_p50_ms (index, rows; some of wire)
//	serve.roundtrip_us       Pool.Submit + Ticket.Result                  latency_p50_ms (index, rows)
//	admit.self_us            admit.do_us − serve.roundtrip_us             latency_p50_ms (index)
//	serve.handoff_us         serve.roundtrip_us − direct layer call       latency_p50_ms, throughput_qps (index)
//	mindex.query_us          direct SubmatrixMax / RangeRowMinima         latency_p50_ms (index)
//	mindex.build_ms          BuildIndex, per index                        setup_s (index)
//	mindex.index_mb          Index.Bytes(), per index                     heap_mb (index)
//	marray.screen_us         the sampled Monge / staircase screens        latency_p50_ms (rows)
//	batch.query_us           width-1 native batch.Driver over fresh       latency_p50_ms (rows)
//	                         TileCache views (what a worker does)
//	batch.query_uncached_us  the same call on the raw input               the tile cache's net effect (rows)
//	serve.cache_hit_ratio    Pool.Stats() hits / (hits + misses)          latency_p50_ms (rows)
//	minplus.screen_ms        both sampled factor screens                  latency_p50_ms (minplus)
//	minplus.multiply_ms      minplus.New(BackendNative).Multiply          throughput_qps, latency_p50_ms (minplus)
//	minplus.multiply_w1_ms   the same on a SetMachineWorkers(1) driver    the fan-out gap (minplus)
//	minplus.ns_per_cell      minplus.multiply_ms / output cells           throughput_qps (minplus)
//	minplus.runs_per_row     Product.Runs()/m, exact                      workload validity (minplus)
//	runtime.alloc_kb_per_op  MemStats.TotalAlloc delta per request        latency_tail_ms (all)
//	runtime.gc_per_kop       GC cycles per thousand requests              latency_tail_ms (all)
//	trace.overhead_pct       traced vs untraced time per request          benchmark health
//
// On wire the direct layer call behind serve.handoff_us is batch.query_us
// on the dense input; on index it is mindex.query_us; on rows the cached
// batch.query_us.
//
// What later changes should move: an httpfront decode rewrite moves only
// wire; a change to the admit/serve handoff or to obs hooks shows on
// index first, on rows by about 1 %, and never on minplus; a fan-out fix
// in minplus moves only minplus, because pool workers already run
// width-1 drivers.
//
// # Smoke test
//
//	go test -race .
//
// runs every workload, both modes, at small sizes for a few requests
// with every answer check, and checks that a corrupted oracle answer is
// caught.
package main
