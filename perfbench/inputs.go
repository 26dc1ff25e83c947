package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"monge"
	"monge/internal/batch"
	"monge/internal/marray"
)

// sizes are the input sizes of every workload. fullSizes is the
// benchmark; the smoke test runs smokeSizes.
type sizes struct {
	wireN, wireInputs int // dense n x n inputs, pre-encoded

	indexN, indexes   int // n x n implicit arrays, one index each
	indexRange        int // rows per RangeRowMinima request
	indexParams       int // distinct query rectangles per index
	indexBruteSamples int // rectangles per index checked by brute force

	rowsInputs             int // distinct implicit inputs, kinds interleaved
	rowN, stairN, tubeN    int // row minima n x n, staircase n x n, tube n x n x n
	minplusN, minplusPairs int // n x n factor pairs
	minplusWitnessStride   int // every stride-th product row is witness-checked

	// Requests issued in setup after construction, about a tenth of a
	// second of each workload; minplus warms up with one product per pair.
	wireWarmup, indexWarmup, rowsWarmup int
}

var fullSizes = sizes{
	wireN: 64, wireInputs: 32,
	indexN: 4096, indexes: 4, indexRange: 64, indexParams: 1024, indexBruteSamples: 8,
	rowsInputs: 64, rowN: 256, stairN: 160, tubeN: 32,
	minplusN: 512, minplusPairs: 4, minplusWitnessStride: 8,
	wireWarmup: 32, indexWarmup: 4096, rowsWarmup: 256,
}

var smokeSizes = sizes{
	wireN: 16, wireInputs: 8,
	indexN: 256, indexes: 2, indexRange: 16, indexParams: 16, indexBruteSamples: 4,
	rowsInputs: 6, rowN: 32, stairN: 32, tubeN: 8,
	minplusN: 48, minplusPairs: 2, minplusWitnessStride: 1,
	wireWarmup: 4, indexWarmup: 4, rowsWarmup: 4,
}

// poolWorkers is the serving pool's width: one worker per core the Go
// runtime schedules on.
func poolWorkers() int { return runtime.GOMAXPROCS(0) }

// newPool is the serving stack every pooled workload uses: the native
// backend with one worker per GOMAXPROCS and the default admission front.
func newPool() *monge.DriverPool {
	return monge.NewDriverPoolOpts(monge.CRCW, monge.PoolOptions{
		Workers: poolWorkers(),
		Backend: monge.BackendNative,
	})
}

var bg = context.Background()

// newWorkerDriver is the driver a pool worker runs: the native backend
// on a width-1 machine pool.
func newWorkerDriver() *batch.Driver {
	d := batch.NewWithBackend(monge.CRCW, monge.BackendNative)
	d.SetMachineWorkers(1)
	return d
}

// offsets draws n row or column offsets uniform in [0, spread).
func offsets(rng *rand.Rand, n int, spread float64) []float64 {
	o := make([]float64, n)
	for i := range o {
		o[i] = rng.Float64() * spread
	}
	return o
}

// quadGap is the convex gap penalty h(g) = g²/16.
func quadGap(g int) float64 { return float64(g*g) / 16 }

// convexGap is an implicit m x n Monge array r[i] + c[j] + g²/16.
func convexGap(rng *rand.Rand, m, n int, spread float64) marray.Matrix {
	return marray.ConvexGapMonge(offsets(rng, m, spread), offsets(rng, n, spread), quadGap)
}

// staircase blocks a with a random nonincreasing boundary that leaves
// every row at least one finite entry and blocks at least one entry.
func staircase(rng *rand.Rand, a marray.Matrix) marray.StairFunc {
	m, n := a.Rows(), a.Cols()
	bound := marray.RandomStaircaseBoundary(rng, m, n)
	for i := range bound {
		bound[i] = max(bound[i], 1)
	}
	bound[m-1] = min(bound[m-1], n-1)
	return marray.StairFunc{M: m, N: n, F: a.At, Bound: func(i int) int { return bound[i] }}
}

func sameInts(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// mismatch reports a wrong answer.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrongAnswer, fmt.Sprintf(format, args...))
}

// take returns the held answer of request i and clears its slot, so
// checked answers do not count in heap_mb.
func take[T any](held []T, i int) T {
	var zero T
	k := i % len(held)
	v := held[k]
	held[k] = zero
	return v
}
