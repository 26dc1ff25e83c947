package monge

// Fault-path conformance: under any deterministic fault schedule — chunk
// stalls, link drops/garbles, superstep timeouts — every machine model
// must return index-exact results; only the charged counters may move.
// These tests pin that contract at the public API for the fault matrix
// rates the CI job uses, and pin the cancellation contract (a cancelled
// context stops a run at the next superstep boundary with a typed error).

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
)

// faultRates is the fault matrix of the ISSUE: injection off, sparse, and
// heavy (the heaviest rate any acceptance criterion uses).
var faultRates = []float64{0, 0.01, 0.2}

const faultSeed = 42

// faultedStats sums the delivered-fault counters.
func faultedStats(in *faults.Injector) int64 {
	s := in.Stats()
	return s.Stalls + s.Drops + s.Garbles + s.Timeouts
}

func TestFaultConformanceRowMinima(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 24
	a := marray.RandomMonge(rng, n, n)
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i], w[i] = float64(i), float64(i)
	}
	f := func(vi, wj float64) float64 { return a.At(int(vi), int(wj)) }
	want, err := RowMinima(a)
	if err != nil {
		t.Fatal(err)
	}

	for _, rate := range faultRates {
		for _, mode := range []Mode{CRCW, CREW} {
			inj := faults.New(faultSeed, rate)
			mach := NewPRAM(mode, n)
			mach.SetFaults(inj)
			got, err := RowMinimaPRAM(mach, a)
			if err != nil {
				t.Fatalf("PRAM %v rate %g: %v", mode, rate, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("PRAM %v rate %g: row %d index %d, want %d", mode, rate, i, got[i], want[i])
				}
			}
		}
		for _, kind := range []NetworkKind{Hypercube, CCC, ShuffleExchange} {
			inj := faults.New(faultSeed, rate)
			mach := NewNetworkFor(kind, n, n)
			mach.SetFaults(inj)
			got, err := RowMinimaHypercube(mach, v, w, f)
			if err != nil {
				t.Fatalf("network %v rate %g: %v", kind, rate, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("network %v rate %g: row %d index %d, want %d", kind, rate, i, got[i], want[i])
				}
			}
			if rate >= 0.2 && faultedStats(inj) == 0 {
				t.Fatalf("network %v rate %g: injector delivered no faults (schedule broken?)", kind, rate)
			}
		}
	}
}

func TestFaultConformanceTubeMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, err := NewComposite(marray.RandomMonge(rng, 6, 6), marray.RandomMonge(rng, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	wantJ, wantV, err := TubeMaxima(c)
	if err != nil {
		t.Fatal(err)
	}

	same := func(t *testing.T, label string, gotJ [][]int, gotV [][]float64) {
		t.Helper()
		for i := range wantJ {
			for k := range wantJ[i] {
				if gotJ[i][k] != wantJ[i][k] {
					t.Fatalf("%s: tube (%d,%d) index %d, want %d", label, i, k, gotJ[i][k], wantJ[i][k])
				}
				if gotV[i][k] != wantV[i][k] {
					t.Fatalf("%s: tube (%d,%d) value %g, want %g", label, i, k, gotV[i][k], wantV[i][k])
				}
			}
		}
	}

	for _, rate := range faultRates {
		for _, mode := range []Mode{CRCW, CREW} {
			mach := NewPRAM(mode, 64)
			mach.SetFaults(faults.New(faultSeed, rate))
			gotJ, gotV, err := TubeMaximaPRAM(mach, c)
			if err != nil {
				t.Fatalf("PRAM %v rate %g: %v", mode, rate, err)
			}
			same(t, "pram", gotJ, gotV)
		}
		for _, kind := range []NetworkKind{Hypercube, CCC, ShuffleExchange} {
			mach := NewTubeNetworkFor(kind, c)
			mach.SetFaults(faults.New(faultSeed, rate))
			gotJ, gotV, err := TubeMaximaHypercube(mach, c)
			if err != nil {
				t.Fatalf("network %v rate %g: %v", kind, rate, err)
			}
			same(t, "network", gotJ, gotV)
		}
	}
}

// TestFaultChargesInflateCounters pins the charging model: a faulty run
// must cost strictly more charged time than the fault-free run of the
// same workload, and the same seed must charge the same amount twice
// (the determinism contract).
func TestFaultChargesInflateCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 24
	a := marray.RandomMonge(rng, n, n)
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i], w[i] = float64(i), float64(i)
	}
	f := func(vi, wj float64) float64 { return a.At(int(vi), int(wj)) }

	run := func(rate float64) int64 {
		mach := NewNetworkFor(Hypercube, n, n)
		mach.SetFaults(faults.New(faultSeed, rate))
		if _, err := RowMinimaHypercube(mach, v, w, f); err != nil {
			t.Fatal(err)
		}
		return mach.Time()
	}
	clean, faulty, again := run(0), run(0.2), run(0.2)
	if faulty <= clean {
		t.Fatalf("faulty time %d must exceed clean time %d", faulty, clean)
	}
	if faulty != again {
		t.Fatalf("same seed charged %d then %d (schedule not deterministic)", faulty, again)
	}
}

func TestCancelledContextTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 16
	a := marray.RandomMonge(rng, n, n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	mach := NewPRAM(CRCW, n)
	mach.SetContext(ctx)
	if _, err := RowMinimaPRAM(mach, a); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("PRAM error %v must match ErrCanceled and context.Canceled", err)
	}

	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i], w[i] = float64(i), float64(i)
	}
	f := func(vi, wj float64) float64 { return a.At(int(vi), int(wj)) }
	net := NewNetworkFor(Hypercube, n, n)
	net.SetContext(ctx)
	if _, err := RowMinimaHypercube(net, v, w, f); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("network error %v must match ErrCanceled and context.Canceled", err)
	}
}

// TestCancellationStopsWithinOneSuperstep cancels mid-run and checks the
// machine abandons the loop at the next superstep boundary: the step whose
// body tripped the cancel may finish dispatching, and the following Step
// call must throw without executing anything.
func TestCancellationStopsWithinOneSuperstep(t *testing.T) {
	m := pram.New(pram.CRCW, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	m.SetContext(ctx)

	const cancelAt = 3
	stepsCompleted := 0
	var err error
	func() {
		defer merr.Catch(&err)
		for s := 0; s < 100; s++ {
			m.Step(4096, func(id int) {
				if s == cancelAt && id == 0 {
					cancel()
				}
			})
			stepsCompleted++
		}
	}()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must match ErrCanceled and context.Canceled", err)
	}
	if stepsCompleted < cancelAt || stepsCompleted > cancelAt+1 {
		t.Fatalf("completed %d supersteps; cancellation at step %d must stop within one superstep", stepsCompleted, cancelAt)
	}
}

// TestMachineTooSmallTypedError pins the undersized-machine contract of
// the caller-provided-machine entry points.
func TestMachineTooSmallTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 32
	a := marray.RandomMonge(rng, n, n)
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i], w[i] = float64(i), float64(i)
	}
	f := func(vi, wj float64) float64 { return a.At(int(vi), int(wj)) }
	small := NewNetworkFor(Hypercube, 2, 2)
	if _, err := RowMinimaHypercube(small, v, w, f); !errors.Is(err, ErrMachineTooSmall) {
		t.Fatalf("error %v must match ErrMachineTooSmall", err)
	}
}

// TestValidationScreensRejectBadInputs pins the sampled screens at the
// public boundary: a grossly corrupted array is rejected with the typed
// sentinel before any machine runs.
func TestValidationScreensRejectBadInputs(t *testing.T) {
	// a[i,j] = i*j violates the Monge inequality in every 2x2 minor (the
	// defect is exactly 1), so the sampled screen rejects it whatever
	// minors it probes; its negation violates inverse-Monge everywhere.
	badMonge := NewFunc(12, 12, func(i, j int) float64 { return float64(i * j) })
	badInverse := NewFunc(12, 12, func(i, j int) float64 { return -float64(i * j) })

	if _, err := RowMinima(badMonge); !errors.Is(err, ErrNotMonge) {
		t.Fatalf("RowMinima error %v must match ErrNotMonge", err)
	}
	mach := NewPRAM(CRCW, 12)
	if _, err := RowMinimaPRAM(mach, badMonge); !errors.Is(err, ErrNotMonge) {
		t.Fatalf("RowMinimaPRAM error %v must match ErrNotMonge", err)
	}
	if _, err := RowMaxima(badInverse); !errors.Is(err, ErrNotInverseMonge) {
		t.Fatalf("RowMaxima error %v must match ErrNotInverseMonge", err)
	}
}
