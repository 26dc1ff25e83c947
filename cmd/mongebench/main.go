// Command mongebench regenerates the paper's tables and application
// results on the simulated machines, printing measured parallel time,
// processor counts, and work next to the claimed asymptotic bounds.
//
// Usage:
//
//	mongebench [-exp all|t11|t12|t13|fig11|app1|app2|app3|app4] [-maxn 2048] [-seed 1]
//	           [-timeout 30s] [-faults 0.05] [-fault-seed 1]
//	           [-metrics] [-trace-out trace.json] [-profile cpu.pprof]
//
// The command is the paper reproduction only: Tables 1.1–1.3, Figure
// 1.1 and the four applications. Serving load (throughput, open-loop
// latency, rejection) is measured by the separate perfbench module.
//
// Each row reports the charged time of the simulated machine at a ladder
// of sizes plus the "shape ratio" time/bound(n), which should stay roughly
// flat when the measured growth matches the claimed bound. See
// EXPERIMENTS.md for the recorded runs and deviations.
//
// Tables 1.1–1.3 (t11, t12, t13) print the rows of the complexity gate
// (internal/checkbounds, run by TestCheckBounds): its fixed per-row
// seeds and its ladders (128–512 for the dense searches, smaller for
// tube maxima), each row closed by its flatness. -seed does not affect
// them and -maxn only trims their ladders, so `mongebench -exp t11
// -maxn 512` prints exactly the t(n) values recorded in EXPERIMENTS.md.
// -seed and -maxn drive figure 1.1 and the applications as before.
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

	"monge/internal/checkbounds"
	"monge/internal/faults"
	"monge/internal/geom"
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/obs"
	"monge/internal/pram"
	"monge/internal/rect"
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
	fs.IntVar(&maxN, "maxn", 2048, "largest problem size in the ladders; t11-t13 use the complexity gate's ladders (up to 512), which this only trims")
	fs.Int64Var(&seed, "seed", 1, "workload seed of fig11 and app1-app4; t11-t13 use the gate's fixed per-row seeds")
	fs.DurationVar(&timeout, "timeout", 0, "cancel the run after this duration (0 = no deadline)")
	fs.Float64Var(&faultRate, "faults", 0, "per-unit fault injection rate in (0, 0.9]; 0 disables injection")
	fs.Int64Var(&faultSeed, "fault-seed", 1, "seed of the deterministic fault schedule")
	fs.BoolVar(&metricsOn, "metrics", false, "collect per-site observability counters and print them as a table (also published as expvar \"monge_obs\")")
	fs.StringVar(&traceOut, "trace-out", "", "record per-superstep spans and write them in Chrome trace_event format to this file")
	fs.StringVar(&profile, "profile", "", "write a CPU profile of the run to this file (runtime/pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
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
	run("t11", func() { table("1.1") })
	run("t12", func() { table("1.2") })
	run("t13", func() { table("1.3") })
	run("fig11", figure11)
	run("app1", app1)
	run("app2", app2)
	run("app3", app3)
	run("app4", app4)
	if failed {
		return 1
	}
	if !matched {
		fmt.Fprintf(errw, "unknown experiment %q\n", expFlag)
		return 2
	}
	if injector != nil {
		s := injector.Stats()
		printf("\ninjected faults recovered: %d stalls, %d drops, %d garbles, %d timeouts\n",
			s.Stalls, s.Drops, s.Garbles, s.Timeouts)
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

// table prints Table id (one of "1.1", "1.2", "1.3") row by row from the
// complexity gate's specs: the same algorithms, processor counts, bounds,
// ladders and per-row seeds that TestCheckBounds measures and that
// EXPERIMENTS.md records, so the two can never disagree.
func table(id string) {
	ctx := benchCtx
	if ctx == nil {
		ctx = context.Background()
	}
	for _, s := range checkbounds.Rows() {
		if s.Table != id {
			continue
		}
		r := checkbounds.Measure(ctx, s, maxN, checkbounds.Tolerance)
		header(fmt.Sprintf("Table %s row %d: %s %s", s.Table, s.Row, s.Model, s.Name), s.Claim)
		for _, p := range r.Points {
			printf("%8d %12d %12d %14d %12.1f\n", p.N, p.Time, p.Procs, p.Work, p.Ratio)
		}
		printf("   flatness %.2f (tolerance %.1f)\n", r.Flatness, checkbounds.Tolerance)
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
