package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadNames is the run order of -workload all.
var workloadNames = []string{"wire", "index", "rows", "minplus"}

// newWorkload returns the named workload at the given sizes.
func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "wire":
		return &wireLoad{sz: sz}, nil
	case "index":
		return &indexLoad{sz: sz}, nil
	case "rows":
		return &rowsLoad{sz: sz}, nil
	case "minplus":
		return &minplusLoad{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want wire, index, rows, minplus, or all)", name)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, fullSizes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer, sz sizes) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "wire, index, rows, minplus, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "request time measured per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 {
		return fmt.Errorf("-seconds must not be negative, got %g", *seconds)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	} else if _, err := newWorkload(*name, sz); err != nil {
		return err
	}

	fmt.Fprintf(out, "perfbench seed=%d nproc=%d GOMAXPROCS=%d go=%s backend=native pool_workers=%d clients=1 seconds=%g trace=%d\n",
		*seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), poolWorkers(), *seconds, *trace)
	res := result{Correct: true, Metrics: map[string]metric{}}
	dur := time.Duration(*seconds * float64(time.Second))
	for _, n := range names {
		// A fresh workload per run, so one workload's inputs are not in
		// the next one's heap_mb.
		w, _ := newWorkload(n, sz)
		tracePath := ""
		if *trace == 1 {
			tracePath = filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", n, *seed))
		}
		r, err := runWorkload(n, w, *seed, dur, tracePath, out)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		for k, v := range r.metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			res.Metrics[k] = v
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

// runWorkload prepares one workload from seed and measures it: the
// end-to-end metrics, or with a trace path the per-layer metrics.
func runWorkload(name string, w workload, seed int64, dur time.Duration, tracePath string, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "workload %s: %s\n", name, w.describe())
	t0 := time.Now()
	if err := w.prepare(rand.New(rand.NewSource(seed))); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	fmt.Fprintf(out, "  inputs and oracle answers: %.2fs (not in setup_s)\n", time.Since(t0).Seconds())
	var r *report
	var err error
	if tracePath != "" {
		r, err = runTraced(w, dur, tracePath)
	} else {
		r, err = runUntraced(w, dur)
	}
	if err != nil {
		return nil, err
	}
	r.print(out, "  metrics:")
	return r, nil
}
