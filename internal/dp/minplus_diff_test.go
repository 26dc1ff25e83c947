// Differential tests between the sequential DP solvers in this package
// and the batched (min,+) engine in internal/minplus. The two sides
// share no code below their public surfaces — LWS runs the concave
// candidate-interval stack, the engine runs layered SMAWK sweeps /
// Lagrangian bisection over the kernel drivers — so agreement here
// cross-checks both. External test package: minplus imports dp (the
// λ-bisection strategy calls LWS), so the reverse import has to stay
// out of package dp proper.
package dp_test

import (
	"math"
	"math/rand"
	"testing"

	"monge/internal/batch"
	"monge/internal/dp"
	"monge/internal/minplus"
)

// convexGapWeight builds a random integer convex-gap Monge weight
// off[i] + off[j] + g² (g = j−i). Integer entries keep every float sum
// exact regardless of association order.
func convexGapWeight(rng *rand.Rand, n int) dp.WeightFunc {
	off := make([]float64, n+1)
	for i := range off {
		off[i] = float64(rng.Intn(64))
	}
	return func(i, j int) float64 {
		g := float64(j - i)
		return off[i] + off[j] + g*g
	}
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(b))
}

// TestLWSMatchesMinPlusEngine: the unconstrained LWS optimum f(n) must
// equal (a) the M-link cost at exactly the link count the LWS chain
// used, and (b) the minimum of the M-link cost over all M — the
// link-constrained optimum is convex in M for Monge weights, with its
// floor at the unconstrained chain.
func TestLWSMatchesMinPlusEngine(t *testing.T) {
	e := minplus.New(batch.BackendNative)
	defer e.Close()
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(25)
		w := convexGapWeight(rng, n)
		f, pred := dp.LWS(n, w)
		chain := dp.Chain(pred)
		mStar := len(chain) - 1

		cost, path := e.MLinkPath(n, minplus.Weight(w), mStar)
		if !closeEnough(cost, f[n]) {
			t.Errorf("seed %d n=%d: MLinkPath(M=%d) = %g, LWS f(n) = %g", seed, n, mStar, cost, f[n])
		}
		if len(path) != mStar+1 {
			t.Errorf("seed %d n=%d: path has %d nodes, want %d", seed, n, len(path), mStar+1)
		}

		best := math.Inf(1)
		for m := 1; m <= n; m++ {
			if c, _ := e.MLinkPath(n, minplus.Weight(w), m); c < best {
				best = c
			}
		}
		if !closeEnough(best, f[n]) {
			t.Errorf("seed %d n=%d: min over M of MLinkPath = %g, LWS f(n) = %g", seed, n, best, f[n])
		}
	}
}

// TestLotSizeMatchesMinPlusEngine re-derives the Wagner-Whitin link
// weight from the raw instance and checks that the engine's M-link
// solver, pinned to the plan's production-run count, reproduces the
// LotSize cost — and that no other run count beats it. The λ strategy
// reads its path off the same LWS chain LotSize keeps, so its path must
// match the plan node for node. The default strategy (the layered sweep
// at these M) breaks cost ties by its own rule, the leftmost
// predecessor per layer as MLinkBrute, so its path is checked for
// validity and cost only.
func TestLotSizeMatchesMinPlusEngine(t *testing.T) {
	e := minplus.New(batch.BackendNative)
	defer e.Close()
	for _, seed := range []int64{3, 11, 29} {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		demand := make([]float64, n)
		setup := make([]float64, n)
		hold := make([]float64, n-1)
		for t := range demand {
			demand[t] = float64(rng.Intn(30))
			setup[t] = float64(10 + rng.Intn(90))
		}
		for t := range hold {
			hold[t] = float64(rng.Intn(5))
		}
		plan := dp.LotSize(demand, setup, hold)

		// Same prefix-sum construction LotSize uses internally: w(i,j) is
		// the cost of one run in period i+1 covering demand through period j.
		D := make([]float64, n+1)
		H := make([]float64, n+1)
		DH := make([]float64, n+1)
		for t := 1; t <= n; t++ {
			D[t] = D[t-1] + demand[t-1]
			rate := 0.0
			if t < n {
				rate = hold[t-1]
			}
			H[t] = H[t-1] + rate
			DH[t] = DH[t-1] + demand[t-1]*H[t-1]
		}
		w := minplus.Weight(func(i, j int) float64 {
			return setup[i] + (DH[j] - DH[i]) - H[i]*(D[j]-D[i])
		})

		lcost, lpath := e.MLinkPathStrategy(n, w, len(plan.Orders), minplus.StrategyLambda)
		if !closeEnough(lcost, plan.Cost) {
			t.Errorf("seed %d n=%d: λ MLinkPath(M=%d) = %g, LotSize cost = %g",
				seed, n, len(plan.Orders), lcost, plan.Cost)
		}
		if len(lpath) != len(plan.Orders)+1 {
			t.Fatalf("seed %d n=%d: λ path %v, want %d links", seed, n, lpath, len(plan.Orders))
		}
		for idx, s := range plan.Orders {
			if lpath[idx] != s-1 {
				t.Errorf("seed %d n=%d: λ path node %d = %d, plan orders in period %d",
					seed, n, idx, lpath[idx], s)
				break
			}
		}

		cost, path := e.MLinkPath(n, w, len(plan.Orders))
		if !closeEnough(cost, plan.Cost) {
			t.Errorf("seed %d n=%d: MLinkPath(M=%d) = %g, LotSize cost = %g",
				seed, n, len(plan.Orders), cost, plan.Cost)
		}
		if M := len(plan.Orders); len(path) != M+1 || path[0] != 0 || path[M] != n {
			t.Fatalf("seed %d n=%d: path %v, want %d links from 0 to %d", seed, n, path, M, n)
		}
		sum := 0.0
		for l := 1; l < len(path); l++ {
			if path[l] <= path[l-1] {
				t.Fatalf("seed %d n=%d: path %v not strictly increasing", seed, n, path)
			}
			sum += w(path[l-1], path[l])
		}
		if !closeEnough(sum, plan.Cost) {
			t.Errorf("seed %d n=%d: path %v costs %g, LotSize cost = %g", seed, n, path, sum, plan.Cost)
		}
		for m := 1; m <= n; m++ {
			if c, _ := e.MLinkPath(n, w, m); c < plan.Cost-1e-6 {
				t.Errorf("seed %d n=%d: M=%d beats the LotSize plan: %g < %g", seed, n, m, c, plan.Cost)
			}
		}
	}
}
