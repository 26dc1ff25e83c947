// Command mongebench regenerates the paper's tables and application
// results on the simulated machines, printing measured parallel time,
// processor counts, and work next to the claimed asymptotic bounds.
//
// Usage:
//
//	mongebench [-exp all|t11|t12|t13|fig11|app1|app2|app3|app4] [-maxn 2048] [-seed 1]
//	           [-batch N] [-serve] [-workers W] [-qps Q] [-queries N]
//	           [-timeout 30s] [-faults 0.05] [-fault-seed 1]
//	           [-metrics] [-trace-out trace.json] [-profile cpu.pprof]
//
// With -batch N, the command runs N same-shape queries per ladder size
// through the batched query driver (internal/batch) instead of the -exp
// experiments: one retained machine per shape class answers the whole
// batch, and each row reports the amortized per-query wall time next to
// the fresh-machine-per-query baseline with an index-exactness check.
//
// With -serve, the command drives a synthetic mix of row-minima,
// staircase, and tube queries through the concurrent driver pool
// (internal/serve): -workers shards, optionally throttled to -qps
// submissions per second, -queries total. It reports achieved
// queries/sec and the per-shard query split and imbalance, and checks
// every answer index-for-index against the sequential facade. -faults and -timeout compose with it like with
// every other experiment.
//
// Each row reports the charged time of the simulated machine at a ladder
// of sizes plus the "shape ratio" time/bound(n), which should stay roughly
// flat when the measured growth matches the claimed bound. See
// EXPERIMENTS.md for the recorded runs and deviations.
//
// With -trace, every simulated machine (including the recursive child
// machines that ParallelDo and Subcubes create) reports per-step runtime
// counters to a shared collector, and the aggregate is written as JSON
// ("-" for stdout) when the experiments finish. The schema is documented
// in README.md under "Instrumentation".
//
// With -metrics, the observability layer (internal/obs) is installed
// process-wide and the per-site counters — charged supersteps/time/work,
// shared-memory reads/writes, write conflicts by mode, link messages and
// bytes, fault recoveries — are printed as a table when the experiments
// finish; the same snapshot is published as the expvar variable
// "monge_obs". With -trace-out, every charged superstep additionally
// records a wall-clock span and the run is exported in Chrome trace_event
// format (load the file at chrome://tracing or ui.perfetto.dev). With
// -profile, a CPU profile of the whole run is written via runtime/pprof.
// See EXPERIMENTS.md "Observability" for the metrics glossary.
//
// With -faults (a rate in (0, 0.9]), every simulated machine runs under
// the deterministic fault injector of internal/faults — transient chunk
// stalls, dropped/garbled link messages, superstep timeouts — seeded by
// -fault-seed; results are index-identical to a fault-free run and the
// delivered-fault counts are reported at the end. With -timeout, the run
// is cancelled at the deadline: machines stop at the next superstep
// boundary, the worker pool drains cleanly, and the command exits
// non-zero reporting the typed ErrCanceled condition. See README.md
// "Fault model & error contract".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/pprof"
	"time"

	"monge/internal/batch"
	"monge/internal/core"
	"monge/internal/exec"
	"monge/internal/faults"
	"monge/internal/geom"
	"monge/internal/hcmonge"
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/obs"
	"monge/internal/pram"
	"monge/internal/rect"
	"monge/internal/serve"
	"monge/internal/smawk"
	"monge/internal/stredit"
)

// The flag values and output writers are package state so the experiment
// functions stay terse; mainImpl re-initialises all of them per
// invocation, which keeps the command testable (cmd tests call mainImpl
// with their own argv and buffers).
var (
	expFlag   string
	maxN      int
	seed      int64
	batchN    int
	serveOn   bool
	openLoop  bool
	latOut    string
	backendF  string
	backendBE batch.Backend
	workersN  int
	qpsLimit  float64
	queriesN  int
	traceFlag string
	timeout   time.Duration
	faultRate float64
	faultSeed int64
	metricsOn bool
	traceOut  string
	profile   string

	out  io.Writer = os.Stdout
	errw io.Writer = os.Stderr
)

func printf(format string, a ...any) { fmt.Fprintf(out, format, a...) }

// benchCtx carries the -timeout deadline into every machine the
// experiments create; nil when no deadline is set.
var benchCtx context.Context

// newPRAM returns a PRAM wired to the run's context (the process-global
// fault injector is attached by pram.New itself).
func newPRAM(mode pram.Mode, procs int) *pram.Machine {
	m := pram.New(mode, procs)
	if benchCtx != nil {
		m.SetContext(benchCtx)
	}
	return m
}

// tuned wires a network machine to the run's context.
func tuned(m *hc.Machine) *hc.Machine {
	if benchCtx != nil {
		m.SetContext(benchCtx)
	}
	return m
}

func main() {
	os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr))
}

// mainImpl is the whole command behind a testable seam: it parses args,
// installs the process-wide instrumentation the flags ask for (restoring
// the previous state on return), runs the selected experiments against
// stdout/stderr, and returns the process exit code — 1 when a run aborts
// on a typed condition such as ErrCanceled at the -timeout deadline,
// 2 on usage errors.
func mainImpl(args []string, stdout, stderr io.Writer) (code int) {
	out, errw = stdout, stderr
	fs := flag.NewFlagSet("mongebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&expFlag, "exp", "all", "experiment: all, t11, t12, t13, fig11, app1, app2, app3, app4")
	fs.IntVar(&maxN, "maxn", 2048, "largest problem size in the ladder")
	fs.Int64Var(&seed, "seed", 1, "workload seed")
	fs.IntVar(&batchN, "batch", 0, "run N same-shape queries per ladder size through the batched driver (internal/batch) instead of the -exp experiments, comparing amortized cost against fresh machines")
	fs.BoolVar(&serveOn, "serve", false, "drive a synthetic query mix through the concurrent driver pool (internal/serve) instead of the -exp experiments, reporting throughput and shard balance")
	fs.BoolVar(&openLoop, "openloop", false, "with -serve: open-loop latency mode — fire queries at fixed -qps rungs (0.5x, 1x, 2x) regardless of completions, through the admission front, reporting p50/p95/p99 latency and rejection rate per rung")
	fs.StringVar(&latOut, "latency-out", "", "with -openloop: write the latency ladder as JSON (schema monge-latency/v1) to this file (\"-\" for stdout)")
	fs.StringVar(&backendF, "backend", "pram", "execution backend for -serve and -batch: pram (simulated machines) or native (direct goroutine kernels)")
	fs.IntVar(&workersN, "workers", 0, "driver-pool worker count for -serve (0 = GOMAXPROCS)")
	fs.Float64Var(&qpsLimit, "qps", 0, "throttle -serve submissions to this many queries per second (0 = unthrottled)")
	fs.IntVar(&queriesN, "queries", 256, "total queries submitted by -serve")
	fs.BoolVar(&indexOn, "index", false, "run the submatrix-maximum index ladder (build cost, index bytes, p50/p95 per-query latency vs an uncached SMAWK call at n in {256, 1024, 4096}) instead of the -exp experiments")
	fs.StringVar(&indexOut, "index-out", "", "with -index: write the ladder as JSON (schema monge-index/v1) to this file (\"-\" for stdout)")
	fs.BoolVar(&minplusOn, "minplus", false, "run the Monge (min,+) multiplication ladder (SMAWK engine vs naive O(n^3), M-link path vs reference DP, at n in {256, 1024, 4096}) instead of the -exp experiments")
	fs.StringVar(&minplusOut, "minplus-out", "", "with -minplus: write the ladder as JSON (schema monge-minplus/v1) to this file (\"-\" for stdout)")
	fs.StringVar(&traceFlag, "trace", "", "write aggregated per-step runtime counters as JSON to this file (\"-\" for stdout)")
	fs.DurationVar(&timeout, "timeout", 0, "cancel the run after this duration (0 = no deadline)")
	fs.Float64Var(&faultRate, "faults", 0, "per-unit fault injection rate in (0, 0.9]; 0 disables injection")
	fs.Int64Var(&faultSeed, "fault-seed", 1, "seed of the deterministic fault schedule")
	fs.BoolVar(&metricsOn, "metrics", false, "collect per-site observability counters and print them as a table (also published as expvar \"monge_obs\")")
	fs.StringVar(&traceOut, "trace-out", "", "record per-superstep spans and write them in Chrome trace_event format to this file")
	fs.StringVar(&profile, "profile", "", "write a CPU profile of the run to this file (runtime/pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch backendF {
	case "pram":
		backendBE = batch.BackendPRAM
	case "native":
		backendBE = batch.BackendNative
	default:
		fmt.Fprintf(stderr, "mongebench: unknown -backend %q (want pram or native)\n", backendF)
		return 2
	}
	if qpsLimit < 0 {
		fmt.Fprintf(stderr, "mongebench: -qps %g is negative; pass a positive rate (or 0 for unthrottled closed-loop -serve)\n", qpsLimit)
		return 2
	}
	if openLoop && !serveOn {
		fmt.Fprintln(stderr, "mongebench: -openloop requires -serve (it drives the serving pool's admission front)")
		return 2
	}
	if openLoop && qpsLimit <= 0 {
		fmt.Fprintln(stderr, "mongebench: -openloop requires -qps > 0 (the base arrival rate of the 0.5x/1x/2x ladder)")
		return 2
	}
	if latOut != "" && !openLoop {
		fmt.Fprintln(stderr, "mongebench: -latency-out requires -openloop (it records the open-loop latency ladder)")
		return 2
	}
	if indexOut != "" && !indexOn {
		fmt.Fprintln(stderr, "mongebench: -index-out requires -index (it records the index ladder)")
		return 2
	}
	if minplusOut != "" && !minplusOn {
		fmt.Fprintln(stderr, "mongebench: -minplus-out requires -minplus (it records the (min,+) ladder)")
		return 2
	}
	if minplusOn && (indexOn || serveOn) {
		fmt.Fprintln(stderr, "mongebench: -minplus is its own mode; drop -index/-serve")
		return 2
	}

	var collector *exec.Collector
	if traceFlag != "" {
		collector = exec.NewCollector()
		prev := exec.GlobalSink()
		exec.SetGlobalSink(collector)
		defer exec.SetGlobalSink(prev)
	}
	var injector *faults.Injector
	if faultRate > 0 {
		injector = faults.New(faultSeed, faultRate)
		prev := faults.Global()
		faults.SetGlobal(injector)
		defer faults.SetGlobal(prev)
		printf("%s\n", injector)
	}
	var observer *obs.Observer
	if metricsOn || traceOut != "" {
		observer = obs.NewObserver()
		if traceOut != "" {
			observer.EnableTracing(0)
		}
		prev := obs.Global()
		obs.SetGlobal(observer)
		defer obs.SetGlobal(prev)
		if metricsOn {
			obs.PublishExpvar()
		}
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			fmt.Fprintf(errw, "creating profile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errw, "starting profile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	benchCtx = nil
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		benchCtx = ctx
	}

	matched := false
	failed := false
	run := func(name string, f func()) {
		if failed || (expFlag != "all" && expFlag != name) {
			return
		}
		matched = true
		if err := runExperiment(f); err != nil {
			fmt.Fprintf(errw, "\nexperiment %s aborted: %v\n", name, err)
			failed = true
		}
	}
	if minplusOn {
		matched = true
		if err := runExperiment(minplusExp); err != nil {
			fmt.Fprintf(errw, "\nminplus experiment aborted: %v\n", err)
			failed = true
		}
	} else if indexOn {
		matched = true
		if err := runExperiment(indexExp); err != nil {
			fmt.Fprintf(errw, "\nindex experiment aborted: %v\n", err)
			failed = true
		}
	} else if openLoop {
		matched = true
		if err := runExperiment(openLoopExp); err != nil {
			fmt.Fprintf(errw, "\nopen-loop experiment aborted: %v\n", err)
			failed = true
		}
	} else if serveOn {
		matched = true
		if err := runExperiment(serveExp); err != nil {
			fmt.Fprintf(errw, "\nserve experiment aborted: %v\n", err)
			failed = true
		}
	} else if batchN > 0 {
		matched = true
		if err := runExperiment(func() { batchExp(batchN) }); err != nil {
			fmt.Fprintf(errw, "\nbatch experiment aborted: %v\n", err)
			failed = true
		}
	} else {
		run("t11", table11)
		run("t12", table12)
		run("t13", table13)
		run("fig11", figure11)
		run("app1", app1)
		run("app2", app2)
		run("app3", app3)
		run("app4", app4)
	}
	if failed {
		return 1
	}
	if !matched {
		fmt.Fprintf(errw, "unknown experiment %q\n", expFlag)
		return 2
	}
	if collector != nil {
		if err := writeTrace(collector, traceFlag); err != nil {
			fmt.Fprintf(errw, "writing trace: %v\n", err)
			return 1
		}
	}
	if injector != nil {
		s := injector.Stats()
		printf("\ninjected faults recovered: %d stalls, %d drops, %d garbles, %d timeouts\n",
			s.Stalls, s.Drops, s.Garbles, s.Timeouts)
		if s.QueueStalls+s.TicketDrops+s.SlowShards > 0 {
			printf("injected serving faults absorbed: %d queue stalls, %d ticket drops, %d slow shards\n",
				s.QueueStalls, s.TicketDrops, s.SlowShards)
		}
	}
	if observer != nil {
		if metricsOn {
			printf("\nobservability counters (expvar %q):\n", "monge_obs")
			if err := observer.WriteTable(out); err != nil {
				fmt.Fprintf(errw, "writing metrics table: %v\n", err)
				return 1
			}
		}
		if traceOut != "" {
			if err := writeChromeTrace(observer, traceOut); err != nil {
				fmt.Fprintf(errw, "writing chrome trace: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// runExperiment executes one experiment, converting a thrown typed
// condition (ErrCanceled at the -timeout deadline, most commonly) into an
// ordinary error so the command can exit cleanly with the machines
// stopped at a superstep boundary and the pool drained.
func runExperiment(f func()) (err error) {
	defer merr.Catch(&err)
	f()
	return nil
}

// writeTrace dumps the collector's aggregates to path ("-" = stdout).
func writeTrace(c *exec.Collector, path string) error {
	if path == "-" {
		return c.WriteJSON(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChromeTrace dumps the observer's span log in Chrome trace_event
// format to path ("-" = stdout).
func writeChromeTrace(o *obs.Observer, path string) error {
	tr := o.Tracer()
	if tr == nil {
		return nil
	}
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(errw, "trace buffer full: %d spans dropped\n", d)
	}
	if path == "-" {
		return tr.WriteChromeTrace(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sizes(limit int) []int {
	var out []int
	for n := 128; n <= limit; n *= 2 {
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{limit}
	}
	return out
}

func lg(n int) float64 { return float64(pram.Log2Ceil(n)) }

func header(title, claim string) {
	printf("\n== %s ==\n   paper claim: %s\n", title, claim)
	printf("%8s %12s %12s %14s %12s\n", "n", "time", "procs", "work", "time/bound")
}

func table11() {
	rng := rand.New(rand.NewSource(seed))
	header("Table 1.1 row 1: CRCW row maxima, n x n Monge", "O(lg n) time, n processors")
	for _, n := range sizes(maxN) {
		a := marray.RandomMonge(rng, n, n)
		mach := newPRAM(pram.CRCW, n)
		core.MongeRowMaxima(mach, a)
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), mach.Procs(), mach.Work(), float64(mach.Time())/lg(n))
	}
	header("Table 1.1 row 2: CREW row maxima, n x n Monge", "O(lg n lglg n) time, n/lglg n processors")
	for _, n := range sizes(maxN) {
		a := marray.RandomMonge(rng, n, n)
		p := n / pram.LogLog2Ceil(n)
		mach := newPRAM(pram.CREW, p)
		core.MongeRowMaxima(mach, a)
		bound := lg(n) * float64(pram.LogLog2Ceil(n))
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), p, mach.Work(), float64(mach.Time())/bound)
	}
	header("Table 1.1 row 3: hypercube / CCC / shuffle-exchange row maxima (Thm 3.2)",
		"O(lg n lglg n) time, n/lglg n processors (we size machines at O(n); time is the reproduced claim)")
	for _, kind := range []hc.Kind{hc.Cube, hc.CCC, hc.Shuffle} {
		for _, n := range sizes(min(maxN, 1024)) {
			a := marray.RandomMonge(rng, n, n)
			v, w := idxVec(n), idxVec(n)
			mach := tuned(hcmonge.MachineFor(kind, n, n))
			hcmonge.MongeRowMaximaOn(mach, v, w, func(i, j int) float64 { return a.At(i, j) })
			bound := lg(n) * float64(pram.LogLog2Ceil(n))
			printf("%8d %12d %12d %14d %12.1f  (%s)\n", n, mach.Time(), mach.Size(), mach.Work(),
				float64(mach.Time())/bound, kind)
		}
	}
}

func idxVec(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

func table12() {
	rng := rand.New(rand.NewSource(seed))
	header("Table 1.2 row 1: CRCW staircase row minima (Thm 2.3)", "O(lg n) time, n processors")
	for _, n := range sizes(maxN) {
		a := marray.RandomStaircaseMonge(rng, n, n)
		mach := newPRAM(pram.CRCW, n)
		core.StaircaseRowMinima(mach, a)
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), n, mach.Work(), float64(mach.Time())/lg(n))
	}
	header("Table 1.2 row 2: CREW staircase row minima (Thm 2.3)", "O(lg n lglg n) time, n/lglg n processors")
	for _, n := range sizes(maxN) {
		a := marray.RandomStaircaseMonge(rng, n, n)
		p := n / pram.LogLog2Ceil(n)
		mach := newPRAM(pram.CREW, p)
		core.StaircaseRowMinima(mach, a)
		bound := lg(n) * float64(pram.LogLog2Ceil(n))
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), p, mach.Work(), float64(mach.Time())/bound)
	}
	header("Table 1.2 row 3: hypercube staircase row minima (Thm 3.3)",
		"O(lg n lglg n) time (proof omitted in the paper; see EXPERIMENTS.md)")
	for _, n := range sizes(min(maxN, 1024)) {
		a := marray.RandomStaircaseMonge(rng, n, n)
		bounds := make([]int, n)
		for i := 0; i < n; i++ {
			bounds[i] = marray.BoundaryOf(a, i)
		}
		v, w := idxVec(n), idxVec(n)
		mach := tuned(hcmonge.MachineFor(hc.Cube, n, n))
		hcmonge.StaircaseRowMinimaOn(mach, v, bounds, w, func(i, j int) float64 { return a.At(i, j) })
		bound := lg(n) * float64(pram.LogLog2Ceil(n))
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), mach.Size(), mach.Work(),
			float64(mach.Time())/bound)
	}
}

func table13() {
	rng := rand.New(rand.NewSource(seed))
	limit := min(maxN, 256)
	header("Table 1.3 row 1: CRCW tube maxima",
		"Theta(lglg n) time, n^2/lglg n procs [Ata89] -- our substitute measures O(lg n); deviation documented")
	for _, n := range sizes(limit) {
		c := marray.RandomComposite(rng, n, n, n)
		mach := newPRAM(pram.CRCW, 2*n*n)
		core.TubeMaxima(mach, c)
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), 2*n*n, mach.Work(), float64(mach.Time())/lg(n))
	}
	header("Table 1.3 row 2: CREW tube maxima", "Theta(lg n) time, n^2/lg n processors (ours: n*(q+r) groups)")
	for _, n := range sizes(limit) {
		c := marray.RandomComposite(rng, n, n, n)
		mach := newPRAM(pram.CREW, 2*n*n)
		core.TubeMaxima(mach, c)
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), 2*n*n, mach.Work(), float64(mach.Time())/lg(n))
	}
	header("Table 1.3 row 3: hypercube tube maxima (Thm 3.4)", "Theta(lg n) time, n^2 processors")
	for _, n := range sizes(min(limit, 128)) {
		c := marray.RandomComposite(rng, n, n, n)
		mach := tuned(hcmonge.TubeMachineFor(hc.Cube, c))
		hcmonge.TubeMaximaOn(mach, c)
		printf("%8d %12d %12d %14d %12.1f\n", n, mach.Time(), mach.Size(), mach.Work(), float64(mach.Time())/lg(n))
	}
}

func figure11() {
	rng := rand.New(rand.NewSource(seed))
	header("Figure 1.1: all-farthest neighbors across a split convex polygon",
		"Theta(m+n) sequential via row maxima; O(lg n) CRCW")
	for _, n := range sizes(maxN) {
		p, q := marray.ConvexChainPair(rng, n, n)
		start := time.Now()
		smawkIdx := geom.AllFarthestNeighbors(p, q)
		seqT := time.Since(start)
		start = time.Now()
		bruteIdx := geom.AllFarthestNeighborsBrute(p, q)
		bruteT := time.Since(start)
		agree := 0
		for i := range smawkIdx {
			if smawkIdx[i] == bruteIdx[i] {
				agree++
			}
		}
		mach := newPRAM(pram.CRCW, 2*n)
		geom.AllFarthestNeighborsPRAM(mach, p, q)
		printf("%8d  smawk %10v  brute %10v  speedup %6.1fx  CRCW time %5d (t/lg n %.1f)  agree %d/%d\n",
			n, seqT, bruteT, float64(bruteT)/float64(seqT), mach.Time(), float64(mach.Time())/lg(n), agree, n)
	}
}

func app1() {
	rng := rand.New(rand.NewSource(seed))
	header("Application 1: largest empty rectangle",
		"paper: O(lg^2 n) CRCW with n lg n procs; ours: exact O(n^2) sequential + O(lg n) anchored families via ANSV")
	bounds := rect.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}
	for _, n := range sizes(min(maxN, 1024)) {
		pts := make([]rect.Point, n)
		for i := range pts {
			pts[i] = rect.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		start := time.Now()
		full := rect.LargestEmptyRect(pts, bounds)
		seqT := time.Since(start)
		mach := newPRAM(pram.CRCW, n)
		anch := rect.LargestAnchoredRect(mach, pts, bounds)
		printf("%8d  exact area %12.1f (%8v)   anchored area %12.1f  CRCW time %5d (t/lg n %.1f)\n",
			n, full.Area(), seqT, anch.Area(), mach.Time(), float64(mach.Time())/lg(n))
	}
}

func app2() {
	rng := rand.New(rand.NewSource(seed))
	header("Application 2: largest-area two-corner rectangle (Melville)",
		"Theta(lg n) CRCW time, n processors")
	for _, n := range sizes(maxN) {
		pts := make([]rect.Point, n)
		for i := range pts {
			pts[i] = rect.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		start := time.Now()
		area, _, _ := rect.MaxCornerRect(pts)
		seqT := time.Since(start)
		mach := newPRAM(pram.CRCW, n)
		parea, _, _ := rect.MaxCornerRectPRAM(mach, pts)
		match := "ok"
		if area != parea {
			match = "MISMATCH"
		}
		printf("%8d  area %14.1f  seq %10v  CRCW time %5d (t/lg n %5.1f)  %s\n",
			n, area, seqT, mach.Time(), float64(mach.Time())/lg(n), match)
	}
}

func app3() {
	rng := rand.New(rand.NewSource(seed))
	header("Application 3: nearest/farthest (in)visible neighbors",
		"O(lg(m+n)) CRCW; invisible cases via staircase-Monge row minima (Thm 2.3)")
	for _, n := range sizes(min(maxN, 1024)) {
		p, q, ob := geom.ObstructedChains(rng, n, n)
		obstacles := []geom.Polygon{ob}
		for _, kind := range []geom.NeighborKind{geom.NearestInvisible, geom.FarthestInvisible} {
			mach := newPRAM(pram.CRCW, 2*n)
			res := geom.Neighbors(kind, mach, p, q, obstacles)
			printf("%8d  %-19s CRCW time %6d (t/lg n %6.1f)  staircase rows %5d, fallback %4d\n",
				n, kind, mach.Time(), float64(mach.Time())/lg(n), res.StaircaseRows, res.FallbackRows)
		}
	}
}

func app4() {
	rng := rand.New(rand.NewSource(seed))
	header("Application 4: string editing",
		"O(lg n lg m) time, nm-processor hypercube (vs wavefront baseline O(n+m))")
	c := stredit.UnitCosts()
	alphabet := 4
	for _, n := range sizes(min(maxN, 256)) {
		x := randStr(rng, n, alphabet)
		y := randStr(rng, n, alphabet)
		start := time.Now()
		want := stredit.Distance(x, y, c)
		dpT := time.Since(start)
		m1 := newPRAM(pram.CRCW, n*n)
		got := stredit.DistancePRAM(m1, x, y, c)
		m2 := newPRAM(pram.CRCW, n*n)
		stredit.DistanceWavefront(m2, x, y, c)
		match := "ok"
		if got != want {
			match = "MISMATCH"
		}
		bound := lg(n) * lg(n)
		printf("%8d  dist %6.0f  DP %8v  monge PRAM time %7d (t/lg^2 %5.1f)  wavefront time %7d  %s\n",
			n, want, dpT, m1.Time(), float64(m1.Time())/bound, m2.Time(), match)
	}
	printf("   hypercube engine (Theorem 3.4 machinery):\n")
	for _, n := range sizes(min(maxN, 64)) {
		x := randStr(rng, n, alphabet)
		y := randStr(rng, n, alphabet)
		d, rep := stredit.DistanceHypercubeCtx(benchCtx, hc.Cube, x, y, c)
		want := stredit.Distance(x, y, c)
		match := "ok"
		if d != want {
			match = "MISMATCH"
		}
		printf("%8d  dist %6.0f  hypercube time %8d (t/lg^2 %6.1f)  %s\n",
			n, d, rep.Time, float64(rep.Time)/(lg(n)*lg(n)), match)
	}
}

// batchExp exercises the batched query driver end to end: k row-minima
// queries (and, at small sizes, k tube-maxima queries) per ladder size
// run through one retained machine per shape class, timed against the
// fresh-machine-per-query path and checked index-for-index against it.
func batchExp(k int) {
	rng := rand.New(rand.NewSource(seed))
	d := batch.NewWithBackend(pram.CRCW, backendBE)
	if benchCtx != nil {
		d.SetContext(benchCtx)
	}
	defer d.Close()

	printf("\n== Batched row minima: %d queries per size, one machine per shape class (%s backend) ==\n", k, backendBE)
	printf("%8s %14s %14s %9s %8s\n", "n", "batch/query", "fresh/query", "speedup", "match")
	for _, n := range sizes(maxN) {
		arrays := make([]marray.Matrix, k)
		for i := range arrays {
			arrays[i] = marray.RandomMonge(rng, n, n)
		}
		start := time.Now()
		got := d.RowMinimaBatch(arrays)
		batchT := time.Since(start)
		match := "ok"
		start = time.Now()
		for i, a := range arrays {
			want := core.RowMinima(newPRAM(pram.CRCW, n), a)
			for r := range want {
				if got[i][r] != want[r] {
					match = "MISMATCH"
				}
			}
		}
		freshT := time.Since(start)
		printf("%8d %14v %14v %8.1fx %8s\n", n, batchT/time.Duration(k), freshT/time.Duration(k),
			float64(freshT)/float64(batchT), match)
	}

	printf("\n== Batched tube maxima: %d queries per size ==\n", k)
	printf("%8s %14s %14s %9s %8s\n", "n", "batch/query", "fresh/query", "speedup", "match")
	for _, n := range sizes(min(maxN, 128)) {
		comps := make([]marray.Composite, k)
		for i := range comps {
			comps[i] = marray.RandomComposite(rng, n, n, n)
		}
		start := time.Now()
		gotJ, _ := d.TubeMaximaBatch(comps)
		batchT := time.Since(start)
		match := "ok"
		start = time.Now()
		for i, c := range comps {
			wantJ, _ := core.TubeMaxima(newPRAM(pram.CRCW, 2*n*n), c)
			for x := range wantJ {
				for kk := range wantJ[x] {
					if gotJ[i][x][kk] != wantJ[x][kk] {
						match = "MISMATCH"
					}
				}
			}
		}
		freshT := time.Since(start)
		printf("%8d %14v %14v %8.1fx %8s\n", n, batchT/time.Duration(k), freshT/time.Duration(k),
			float64(freshT)/float64(batchT), match)
	}
}

// serveExp drives the concurrent driver pool (internal/serve) with a
// synthetic mix of row-minima, staircase, and tube queries, optionally
// throttled to -qps, and reports achieved throughput and shard balance.
// Every answer is checked index-for-index
// against the sequential facade computed up front — concurrency must
// never change an answer. The -faults and -timeout flags pass through:
// machines inside the pool attach the process-global injector and the
// run's context like every other experiment.
func serveExp() {
	rng := rand.New(rand.NewSource(seed))
	n := min(maxN, 512)
	tubeN := min(n, 24)

	// A small rotating set of distinct inputs, implicit-backed like the
	// serving workloads.
	type prep struct {
		q    serve.Query
		idx  []int
		tubJ [][]int
	}
	var mix []prep
	for i := 0; i < 4; i++ {
		a := marray.RandomMonge(rng, n, n)
		f := marray.Func{M: n, N: n, F: a.At}
		mix = append(mix, prep{q: serve.Query{Kind: serve.RowMinima, A: f}, idx: smawk.RowMinima(a)})
	}
	s := marray.RandomStaircaseMonge(rng, n, n)
	sf := marray.Func{M: n, N: n, F: s.At}
	mix = append(mix, prep{q: serve.Query{Kind: serve.StaircaseRowMinima, A: sf}, idx: smawk.StaircaseRowMinima(s)})
	// Hostile traffic: ties split at 2^-30, ~1e-9 (exact leftmost
	// tie-breaking or bust) and an inf-dominated staircase (mostly
	// blocked rows, -1 answers). Both are implicit-backed so the
	// workers — and under the native backend the branchless scan
	// kernels — see them.
	nt := marray.RandomNearTieMonge(rng, n, n)
	ntf := marray.Func{M: n, N: n, F: nt.At}
	mix = append(mix, prep{q: serve.Query{Kind: serve.RowMinima, A: ntf}, idx: smawk.RowMinima(nt)})
	ih := marray.RandomInfHeavyStaircase(rng, n, n)
	mix = append(mix, prep{q: serve.Query{Kind: serve.StaircaseRowMinima, A: ih}, idx: smawk.StaircaseRowMinima(ih)})
	c := marray.RandomComposite(rng, tubeN, tubeN, tubeN)
	tj, _ := smawk.TubeMaxima(c)
	mix = append(mix, prep{q: serve.Query{Kind: serve.TubeMaxima, C: c}, tubJ: tj})

	pool := serve.New(pram.CRCW, serve.Options{Workers: workersN, Context: benchCtx, Backend: backendBE})
	defer pool.Close()
	printf("\n== Concurrent serving: %d queries, %d workers, %s backend", queriesN, pool.Workers(), backendBE)
	if qpsLimit > 0 {
		printf(", throttled to %.0f qps", qpsLimit)
	}
	printf(" ==\n")

	var throttle <-chan time.Time
	if qpsLimit > 0 {
		tick := time.NewTicker(time.Duration(float64(time.Second) / qpsLimit))
		defer tick.Stop()
		throttle = tick.C
	}
	tickets := make([]*serve.Ticket, queriesN)
	start := time.Now()
	for i := 0; i < queriesN; i++ {
		if throttle != nil {
			<-throttle
		}
		t, err := pool.Submit(mix[i%len(mix)].q)
		if err != nil {
			merr.Throw(err)
		}
		tickets[i] = t
	}
	mismatches := 0
	for i, t := range tickets {
		res := t.Result()
		if res.Err != nil {
			merr.Throw(res.Err)
		}
		want := mix[i%len(mix)]
		for r := range want.idx {
			if res.Idx[r] != want.idx[r] {
				mismatches++
			}
		}
		for x := range want.tubJ {
			for k := range want.tubJ[x] {
				if res.TubeJ[x][k] != want.tubJ[x][k] {
					mismatches++
				}
			}
		}
	}
	elapsed := time.Since(start)

	st := pool.Stats()
	match := "ok"
	if mismatches > 0 {
		match = fmt.Sprintf("%d MISMATCHES", mismatches)
	}
	printf("%10s %12s %10s %10s %8s\n", "queries", "elapsed", "qps", "imbalance", "match")
	printf("%10d %12v %10.0f %10d %8s\n", st.Queries, elapsed.Round(time.Millisecond),
		float64(st.Queries)/elapsed.Seconds(), st.Imbalance, match)
	printf("   per-shard queries:")
	for _, q := range st.PerWorker {
		printf(" %d", q)
	}
	printf("\n")
	if mismatches > 0 {
		merr.Throwf(merr.ErrNotMonge, "serve: %d index mismatches against the sequential facade", mismatches)
	}
}

func randStr(rng *rand.Rand, n, alpha int) string {
	b := make([]rune, n)
	for i := range b {
		b[i] = rune('a' + rng.Intn(alpha))
	}
	return string(b)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
