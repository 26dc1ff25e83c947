package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one closed-loop request mix. The harness calls prepare
// once, setup (and teardown) several times, then request from a single
// goroutine; check and verifyStack run with the clock stopped.
type workload interface {
	// describe names the input sizes for the run header.
	describe() string
	// prepare generates the inputs from rng and computes the oracle
	// answers. It is not part of setup_s.
	prepare(rng *rand.Rand) error
	// setup constructs the serving stack, builds what the requests
	// read, and issues warm-up requests. It is timed as setup_s.
	setup() error
	// verifyStack checks what setup built, and its warm-up answers,
	// against the oracle.
	verifyStack() error
	// request issues request i and holds its answer in slot i mod
	// checkEvery. A non-nil error is a failed request (non-2xx,
	// Result.Err, typed rejection), not a wrong answer.
	request(i int) error
	// check compares the held answer of request i with the oracle.
	check(i int) error
	// replay issues request i again, one layer at a time, under one
	// client span of tr, and checks every layer's answer.
	replay(i int, tr *tracer) error
	// tailPercentile is the latency percentile reported beside p50.
	tailPercentile() float64
	// checkEvery is how many answers are held before the clock stops
	// to check them. Holding them in typed slots keeps the timed loop
	// free of the benchmark's own allocations.
	checkEvery() int
	// cacheStats returns the serving pool's tile-cache hits and
	// misses, or zeros when the workload has no pool.
	cacheStats() (hits, misses int64)
	// layerMetrics adds the per-layer values that come from setup or
	// the oracle rather than from spans (build time, index size, runs).
	layerMetrics(out map[string]float64)
	// teardown stops every goroutine setup started.
	teardown()
}

// errWrongAnswer marks an answer that disagrees with the oracle; it
// aborts the run with a nonzero exit and no result line.
var errWrongAnswer = errors.New("wrong answer")

// A run constructs its stack at least minSetups and at most maxSetups
// times, stopping once setupBudget has been spent; setup_s is the
// median, and the last stack serves the timed phase.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// minRequests keeps every timed phase long enough for a percentile,
// even with a zero duration (the smoke test).
const minRequests = 8

// phase is what one timed closed-loop phase measured.
type phase struct {
	attempted, failed int64
	active            time.Duration   // request time, check pauses excluded
	lats              []time.Duration // one per attempted request; failures read +Inf
	allocBytes        uint64          // heap bytes allocated while the clock ran
	gcs               uint32          // GC cycles completed while the clock ran
	cacheHits         int64
	cacheMisses       int64
	next              int // index of the next request
}

// runSetups builds the stack several times, tearing down all but the
// last, and returns each construction's duration in seconds.
func runSetups(w workload) ([]float64, error) {
	var secs []float64
	var spent time.Duration
	for k := 0; k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if k > 0 {
			w.teardown()
		}
		t0 := time.Now()
		err := w.setup()
		d := time.Since(t0)
		if err == nil {
			err = w.verifyStack()
		}
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		spent += d
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// warmUp issues the first n requests, from setup.
func warmUp(w workload, n int) error {
	for i := 0; i < n; i++ {
		if err := w.request(i); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// checkWarmup checks the answers of the first n requests, which setup
// issued as warm-up.
func checkWarmup(w workload, n int) error {
	for i := 0; i < n; i++ {
		if err := w.check(i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// timedPhase runs the closed loop with one client for dur of request
// time, starting at request first. Answers are checked in batches with
// the clock stopped; a wrong answer ends the phase with errWrongAnswer.
func timedPhase(w workload, first int, dur time.Duration) (phase, error) {
	ph := phase{next: first}
	pending := make([]int, 0, w.checkEvery())
	h0, m0 := w.cacheStats()
	runtime.GC()
	var ms runtime.MemStats
	for ph.active < dur || ph.attempted < minRequests {
		runtime.ReadMemStats(&ms)
		alloc0, gc0 := ms.TotalAlloc, ms.NumGC
		seg := time.Now()
		for {
			t0 := time.Now()
			err := w.request(ph.next)
			lat := time.Since(t0)
			ph.attempted++
			if err != nil {
				ph.failed++
				lat = time.Duration(math.MaxInt64)
			} else {
				pending = append(pending, ph.next)
			}
			ph.lats = append(ph.lats, lat)
			ph.next++
			if ph.next%cap(pending) == 0 {
				break // the next request would reuse a held slot
			}
			if ph.active+time.Since(seg) >= dur && ph.attempted >= minRequests {
				break
			}
		}
		ph.active += time.Since(seg)
		runtime.ReadMemStats(&ms)
		ph.allocBytes += ms.TotalAlloc - alloc0
		ph.gcs += ms.NumGC - gc0
		for _, i := range pending {
			if err := w.check(i); err != nil {
				return ph, err
			}
		}
		pending = pending[:0]
	}
	h1, m1 := w.cacheStats()
	ph.cacheHits, ph.cacheMisses = h1-h0, m1-m0
	return ph, nil
}

// liveHeapMiB is the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank p-th percentile of sorted, with the
// number of samples above it.
func percentile(sorted []time.Duration, p float64) (v time.Duration, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's measured metrics plus the text lines that
// print them with their sample counts.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	lines             []string
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("  %-28s %14.6g %-8s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

func (r *report) print(out io.Writer, title string) {
	fmt.Fprintf(out, "%s\n", title)
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, dur time.Duration) (*report, error) {
	setups, err := runSetups(w)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	ph, err := timedPhase(w, 0, dur)
	if err != nil {
		return nil, err
	}
	r := &report{attempted: ph.attempted, failed: ph.failed, metrics: map[string]metric{}}
	n := len(ph.lats)
	r.add("throughput_qps", float64(ph.attempted)/ph.active.Seconds(), "1/s",
		fmt.Sprintf("%d requests in %.2fs of request time", n, ph.active.Seconds()))
	lats := sortedDurations(ph.lats)
	p50, b50 := percentile(lats, 50)
	r.add("latency_p50_ms", ms(p50), "ms", fmt.Sprintf("n=%d, %d beyond", n, b50))
	tp := w.tailPercentile()
	tail, bt := percentile(lats, tp)
	r.add("latency_tail_ms", ms(tail), "ms", fmt.Sprintf("p%g: n=%d, %d beyond", tp, n, bt))
	// The latency records are the benchmark's, not the program's heap.
	ph.lats = nil
	heap := liveHeapMiB()
	r.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d constructions", len(setups)))
	r.add("heap_mb", heap, "MiB", "live heap after GC at the end of the timed phase")
	r.lines = append(r.lines, fmt.Sprintf("  %-28s %14.6g %-8s  %d failed of %d attempted (the result line carries both)",
		"error_rate", float64(ph.failed)/float64(ph.attempted), "ratio", ph.failed, ph.attempted))
	return r, nil
}

// perLayerNames lists every per-layer metric with its unit. A traced
// run prints all of them; a layer the workload does not reach reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"httpfront.decode_us", "us"},
	{"httpfront.handler_us", "us"},
	{"httpfront.encode_us", "us"},
	{"wire.transport_us", "us"},
	{"wire.request_kb", "KiB"},
	{"admit.do_us", "us"},
	{"serve.roundtrip_us", "us"},
	{"admit.self_us", "us"},
	{"serve.handoff_us", "us"},
	{"mindex.query_us", "us"},
	{"mindex.build_ms", "ms"},
	{"mindex.index_mb", "MiB"},
	{"marray.screen_us", "us"},
	{"batch.query_us", "us"},
	{"batch.query_uncached_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"minplus.screen_ms", "ms"},
	{"minplus.multiply_ms", "ms"},
	{"minplus.multiply_w1_ms", "ms"},
	{"minplus.ns_per_cell", "ns"},
	{"minplus.runs_per_row", "runs/row"},
	{"runtime.alloc_kb_per_op", "KiB/op"},
	{"runtime.gc_per_kop", "GC/kop"},
	{"trace.overhead_pct", "%"},
}

// runTraced measures the per-layer metrics: an untraced phase for the
// runtime counters and the overhead baseline, then a traced phase that
// replays requests layer by layer. The spans go to tracePath.
func runTraced(w workload, dur time.Duration, tracePath string) (*report, error) {
	if _, err := runSetups(w); err != nil {
		return nil, err
	}
	defer w.teardown()
	base, err := timedPhase(w, 0, dur/2)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	runtime.GC()
	var replayed int64
	for i := base.next; tr.clientTotal < dur/2 || replayed < minRequests; i++ {
		if err := w.replay(i, tr); err != nil {
			return nil, err
		}
		replayed++
	}

	vals := map[string]float64{}
	for name, xs := range tr.series {
		vals[name] = median(xs)
	}
	ops := float64(base.attempted)
	vals["runtime.alloc_kb_per_op"] = float64(base.allocBytes) / 1024 / ops
	vals["runtime.gc_per_kop"] = float64(base.gcs) * 1000 / ops
	if total := base.cacheHits + base.cacheMisses; total > 0 {
		vals["serve.cache_hit_ratio"] = float64(base.cacheHits) / float64(total)
	}
	// The traced loop's own time per request is its client spans minus
	// the replay-only layer calls; against the untraced loop's time per
	// request that is the cost of recording spans.
	untracedPer := base.active.Seconds() / ops
	tracedPer := (tr.clientTotal - tr.replayTotal).Seconds() / float64(replayed)
	vals["trace.overhead_pct"] = 100 * (tracedPer/untracedPer - 1)
	w.layerMetrics(vals)

	r := &report{attempted: base.attempted + replayed, failed: base.failed, metrics: map[string]metric{}}
	for _, pl := range perLayerNames {
		note := ""
		xs, ok := tr.series[pl.name]
		if !ok { // a millisecond metric converted from its span's series
			xs, ok = tr.series[strings.TrimSuffix(pl.name, "_ms")+"_us"]
		}
		if ok {
			note = fmt.Sprintf("median of %d traced requests", len(xs))
		}
		r.add(pl.name, vals[pl.name], pl.unit, note)
	}
	spans, err := tr.writeFile(tracePath)
	if err != nil {
		return nil, err
	}
	r.lines = append(r.lines, fmt.Sprintf("  spans: %d written to %s", spans, tracePath))
	return r, nil
}
