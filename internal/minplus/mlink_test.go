package minplus

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"monge/internal/batch"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
)

// mongeWeight derives a Monge link weight from a dense integer Monge
// matrix over nodes 0..n: every quadruple i<i'<j<j' is a Monge minor,
// so the concave quadrangle inequality holds, and integer entries keep
// every strategy's float sums exact regardless of association order.
func mongeWeight(rng *rand.Rand, n int) Weight {
	d := marray.RandomMongeInt(rng, n+1, n+1, 4)
	return func(i, j int) float64 { return d.At(i, j) }
}

// linkMatrix is the 1-link weight matrix D[i][j] = w(i,j) for i < j,
// +Inf at and below the diagonal, over nodes 0..n.
func linkMatrix(n int, w Weight) marray.Matrix {
	return marray.Func{M: n + 1, N: n + 1, F: func(i, j int) float64 {
		if i < j {
			return w(i, j)
		}
		return inf
	}}
}

// checkPath asserts p is a valid exactly-M-link path 0 -> n whose edge
// sum reproduces cost within tol.
func checkPath(t *testing.T, n int, w Weight, M int, cost float64, p []int, tol float64) {
	t.Helper()
	if len(p) != M+1 || p[0] != 0 || p[M] != n {
		t.Fatalf("path %v: want %d links from 0 to %d", p, M, n)
	}
	sum := 0.0
	for l := 0; l < M; l++ {
		if p[l] >= p[l+1] {
			t.Fatalf("path %v not strictly increasing at link %d", p, l)
		}
		sum += w(p[l], p[l+1])
	}
	if diff := math.Abs(sum - cost); diff > tol {
		t.Fatalf("path edge sum %g, reported cost %g (diff %g > tol %g)", sum, cost, diff, tol)
	}
}

// TestMLinkStrategiesMatchBrute cross-checks both strategies, auto,
// and both backends against the O(n²M) reference DP across M values
// from a single link to the full chain. Layered shares the reference's
// leftmost-predecessor rule, so its paths must match node for node;
// lambda resolves ties by its own decomposition, so it is held to
// exact cost and path validity.
func TestMLinkStrategiesMatchBrute(t *testing.T) {
	const n = 34
	rng := rand.New(rand.NewSource(11))
	w := mongeWeight(rng, n)
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			e := New(bk.be)
			defer e.Close()
			for _, M := range []int{1, 2, 3, 5, 8, 17, n - 1, n} {
				wantCost, wantPath := MLinkBrute(n, w, M)
				gotCost, gotPath := e.MLinkPathStrategy(n, w, M, StrategyLayered)
				if gotCost != wantCost {
					t.Fatalf("M=%d layered cost %g, brute %g", M, gotCost, wantCost)
				}
				for l := range wantPath {
					if gotPath[l] != wantPath[l] {
						t.Fatalf("M=%d layered path %v, brute %v", M, gotPath, wantPath)
					}
				}
				laCost, laPath := e.MLinkPathStrategy(n, w, M, StrategyLambda)
				if math.Abs(laCost-wantCost) > 1e-6 {
					t.Fatalf("M=%d lambda cost %g, brute %g", M, laCost, wantCost)
				}
				checkPath(t, n, w, M, laCost, laPath, 1e-6)
				auCost, auPath := e.MLinkPath(n, w, M)
				if math.Abs(auCost-wantCost) > 1e-6 {
					t.Fatalf("M=%d auto cost %g, brute %g", M, auCost, wantCost)
				}
				checkPath(t, n, w, M, auCost, auPath, 1e-6)
			}
		})
	}
}

// TestMLinkGeometricWeights runs a real-valued convex-gap family (the
// Monge weights of the alignment literature) through every strategy,
// with float tolerance for the cross-association sums.
func TestMLinkGeometricWeights(t *testing.T) {
	const n = 48
	rng := rand.New(rand.NewSource(19))
	off := make([]float64, n+1)
	for i := range off {
		off[i] = rng.Float64() * 10
	}
	w := Weight(func(i, j int) float64 {
		return off[i] + off[j] + math.Pow(float64(j-i), 1.5)
	})
	e := New(batch.BackendNative)
	defer e.Close()
	for _, M := range []int{1, 4, 9, 25, n} {
		wantCost, _ := MLinkBrute(n, w, M)
		for _, s := range []Strategy{StrategyLayered, StrategyLambda} {
			cost, path := e.MLinkPathStrategy(n, w, M, s)
			if math.Abs(cost-wantCost) > 1e-9*(1+math.Abs(wantCost)) {
				t.Fatalf("M=%d %s cost %g, brute %g", M, s, cost, wantCost)
			}
			checkPath(t, n, w, M, cost, path, 1e-6)
		}
	}
}

// TestMLinkNoPath pins the (+Inf, nil) convention when M exceeds the
// node span, on every strategy and on the reference DP.
func TestMLinkNoPath(t *testing.T) {
	w := Weight(func(i, j int) float64 { return 1 })
	e := New(batch.BackendNative)
	defer e.Close()
	for _, s := range []Strategy{StrategyAuto, StrategyLayered, StrategyLambda} {
		if cost, path := e.MLinkPathStrategy(6, w, 7, s); !math.IsInf(cost, 1) || path != nil {
			t.Fatalf("%s M>n: cost=%g path=%v, want +Inf, nil", s, cost, path)
		}
	}
	if cost, path := MLinkBrute(6, w, 7); !math.IsInf(cost, 1) || path != nil {
		t.Fatalf("brute M>n: cost=%g path=%v, want +Inf, nil", cost, path)
	}
	// M == n leaves exactly the unit chain.
	cost, path := e.MLinkPath(5, w, 5)
	if cost != 5 {
		t.Fatalf("unit chain cost %g, want 5", cost)
	}
	for l, v := range path {
		if v != l {
			t.Fatalf("unit chain path %v", path)
		}
	}
}

// TestMLinkErrors pins the typed validation of the solver seam.
func TestMLinkErrors(t *testing.T) {
	e := New(batch.BackendNative)
	defer e.Close()
	w := Weight(func(i, j int) float64 { return 1 })
	try := func(n, M int) (err error) {
		defer merr.Catch(&err)
		e.MLinkPath(n, w, M)
		return nil
	}
	if err := try(0, 1); !errors.Is(err, merr.ErrDimensionMismatch) {
		t.Fatalf("n=0: err=%v, want ErrDimensionMismatch", err)
	}
	if err := try(5, 0); !errors.Is(err, merr.ErrDimensionMismatch) {
		t.Fatalf("M=0: err=%v, want ErrDimensionMismatch", err)
	}
}

// TestMLinkPathEvaluations counts the link weights each strategy reads
// at M = 16 on a driver with a 2-worker Fanout pool. The layered sweep
// makes M SMAWK passes over an (n+1)² layer matrix plus one read per
// node and layer, so it must read at most c·M·(2n+2) weights at any
// driver width: c = 4 on the integer Monge weights of the other tests,
// c = 6 on a convex-gap weight, whose near-diagonal predecessors make
// SMAWK discard fewer columns. The λ search must read fewer than the
// n²M/2 of the reference DP, whose bound is computed rather than run.
func TestMLinkPathEvaluations(t *testing.T) {
	const M = 16
	for _, n := range []int{512, 2048} {
		rng := rand.New(rand.NewSource(int64(n)))
		off := make([]float64, n+1)
		for i := range off {
			off[i] = rng.Float64() * 10
		}
		for _, fam := range []struct {
			name string
			w    Weight
			c    int64
		}{
			{"int", mongeWeight(rng, n), 4},
			{"convex-gap", func(i, j int) float64 { return off[i] + off[j] + math.Pow(float64(j-i), 1.5) }, 6},
		} {
			var reads atomic.Int64
			w := Weight(func(i, j int) float64 {
				reads.Add(1)
				return fam.w(i, j)
			})
			d := batch.NewWithBackend(pram.CRCW, batch.BackendNative)
			d.SetMachineWorkers(2)
			e := NewWith(d)
			costs := map[Strategy]float64{}
			for _, tc := range []struct {
				s     Strategy
				bound int64
			}{
				{StrategyLayered, fam.c * M * (2*int64(n) + 2)},
				{StrategyLambda, int64(n) * int64(n) * M / 2},
			} {
				reads.Store(0)
				cost, path := e.MLinkPathStrategy(n, w, M, tc.s)
				got := reads.Load()
				checkPath(t, n, w, M, cost, path, 1e-6)
				costs[tc.s] = cost
				t.Logf("n=%d %s %s: %d weight reads = %.2f·M·(2n+2), bound %d",
					n, fam.name, tc.s, got, float64(got)/float64(M*(2*n+2)), tc.bound)
				if got > tc.bound {
					t.Errorf("n=%d M=%d %s %s read %d weights, bound %d", n, M, fam.name, tc.s, got, tc.bound)
				}
			}
			if l, la := costs[StrategyLayered], costs[StrategyLambda]; math.Abs(l-la) > 1e-9*(1+math.Abs(l)) {
				t.Errorf("n=%d M=%d %s: layered cost %g, lambda %g", n, M, fam.name, l, la)
			}
			d.Close()
		}
	}
}
