package transport

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"monge/internal/marray"
	"monge/internal/merr"
)

func randInstance(rng *rand.Rand, m, n int) (a, b []float64) {
	a = make([]float64, m)
	b = make([]float64, n)
	total := 0.0
	for i := range a {
		a[i] = float64(1 + rng.Intn(20))
		total += a[i]
	}
	// random composition of total into n parts
	rest := total
	for j := 0; j < n-1; j++ {
		take := math.Floor(rest * rng.Float64())
		b[j] = take
		rest -= take
	}
	b[n-1] = rest
	return a, b
}

// greedy is Greedy on an instance the test built balanced; an
// ErrUnbalanced there is a generator defect and fails t.
func greedy(t *testing.T, a, b []float64, c marray.Matrix) (float64, []Flow) {
	t.Helper()
	cost, flows, err := Greedy(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	return cost, flows
}

func TestGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := randInstance(rng, m, n)
		c := marray.RandomMonge(rng, m, n)
		_, flows := greedy(t, a, b, c)
		// Shipments respect supplies and demands exactly.
		sa := make([]float64, m)
		sb := make([]float64, n)
		for _, f := range flows {
			if f.Amount <= 0 {
				t.Fatal("nonpositive flow recorded")
			}
			sa[f.I] += f.Amount
			sb[f.J] += f.Amount
		}
		for i := range a {
			if math.Abs(sa[i]-a[i]) > 1e-9 {
				t.Fatalf("supply %d: shipped %v of %v", i, sa[i], a[i])
			}
		}
		for j := range b {
			if math.Abs(sb[j]-b[j]) > 1e-9 {
				t.Fatalf("demand %d: received %v of %v", j, sb[j], b[j])
			}
		}
	}
}

func TestGreedyOptimalOnMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		m, n := 1+rng.Intn(7), 1+rng.Intn(7)
		a, b := randInstance(rng, m, n)
		c := marray.RandomMonge(rng, m, n)
		// Shift costs to be nonnegative (min-cost-flow with Bellman-Ford
		// handles negatives, but nonnegative keeps it robust); shifting
		// all entries by a constant preserves both Monge-ness and the
		// optimal flow structure, changing both objectives equally.
		lo := math.Inf(1)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				lo = math.Min(lo, c.At(i, j))
			}
		}
		shifted := marray.Func{M: m, N: n, F: func(i, j int) float64 {
			return c.At(i, j) - lo
		}}
		gc, _ := greedy(t, a, b, shifted)
		oc := Optimal(a, b, shifted)
		if math.Abs(gc-oc) > 1e-6*math.Max(1, oc) {
			t.Fatalf("trial %d: greedy %v vs optimal %v", trial, gc, oc)
		}
	}
}

func TestGreedySuboptimalOnNonMonge(t *testing.T) {
	// The anti-Monge 2x2 instance where the greedy rule fails,
	// demonstrating that Monge-ness is what makes Hoffman's rule work.
	a := []float64{1, 1}
	b := []float64{1, 1}
	c := marray.FromRows([][]float64{
		{10, 0},
		{0, 10},
	})
	gc, _ := greedy(t, a, b, c)
	oc := Optimal(a, b, c)
	if gc <= oc {
		t.Fatalf("expected greedy (%v) to lose to optimal (%v) on anti-Monge costs", gc, oc)
	}
}

func TestGreedyUnbalancedError(t *testing.T) {
	_, _, err := Greedy([]float64{1}, []float64{2}, marray.NewDense(1, 1))
	if !errors.Is(err, merr.ErrUnbalanced) {
		t.Fatalf("err = %v, want merr.ErrUnbalanced", err)
	}
}

func TestQuickGreedyOptimal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randInstance(rng, m, n)
		c := marray.RandomMonge(rng, m, n)
		lo := math.Inf(1)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				lo = math.Min(lo, c.At(i, j))
			}
		}
		sh := marray.Func{M: m, N: n, F: func(i, j int) float64 { return c.At(i, j) - lo }}
		gc, _, err := Greedy(a, b, sh)
		if err != nil {
			return false
		}
		oc := Optimal(a, b, sh)
		return math.Abs(gc-oc) < 1e-6*math.Max(1, oc)
	}
	if err := quick.Check(fn, cfg); err != nil {
		t.Fatal(err)
	}
}
