package monge

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"monge/internal/marray"
	"monge/internal/minplus"
)

// TestMinPlusFacade covers the public (min,+) surface end to end:
// dense and staircase factors against the naive oracle with index-exact
// witnesses, the core representation, and the typed error contract.
func TestMinPlusFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct {
		name string
		a, b Matrix
	}{
		{"dense", marray.RandomMongeInt(rng, 18, 23, 6), marray.RandomMongeInt(rng, 23, 15, 6)},
		{"staircase", marray.RandomMongeInt(rng, 14, 20, 5), marray.RandomStaircaseMongeInt(rng, 20, 17, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := MinPlus(tc.a, tc.b)
			if err != nil {
				t.Fatalf("MinPlus: %v", err)
			}
			want, wit := minplus.MultiplyNaive(tc.a, tc.b)
			for i := 0; i < tc.a.Rows(); i++ {
				for k := 0; k < tc.b.Cols(); k++ {
					if p.At(i, k) != want.At(i, k) || p.Witness(i, k) != wit[i][k] {
						t.Fatalf("(%d,%d): got (%g, %d), want (%g, %d)",
							i, k, p.At(i, k), p.Witness(i, k), want.At(i, k), wit[i][k])
					}
				}
			}
			if p.Runs() < tc.a.Rows() || p.Runs() > tc.a.Rows()*tc.b.Cols() {
				t.Fatalf("core size %d outside [rows, rows*cols]", p.Runs())
			}
		})
	}

	// Typed errors, not panics: non-Monge factors and inner mismatch.
	notMonge := FromRows([][]float64{{5, 0}, {0, 5}})
	ok2 := FromRows([][]float64{{0, 1}, {1, 0}})
	if _, err := MinPlus(notMonge, ok2); !errors.Is(err, ErrNotMonge) {
		t.Fatalf("non-Monge a: err=%v, want ErrNotMonge", err)
	}
	if _, err := MinPlus(ok2, notMonge); !errors.Is(err, ErrNotMonge) {
		t.Fatalf("non-Monge b: err=%v, want ErrNotMonge", err)
	}
	a3 := marray.RandomMongeInt(rng, 4, 7, 3)
	b3 := marray.RandomMongeInt(rng, 6, 5, 3)
	if _, err := MinPlus(a3, b3); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("inner mismatch: err=%v, want ErrDimensionMismatch", err)
	}
}

// mlinkTestWeight is a convex-gap Monge weight with integer values, so
// every solver strategy's float sums are exact.
func mlinkTestWeight(rng *rand.Rand, n int) LinkWeight {
	off := make([]float64, n+1)
	for i := range off {
		off[i] = float64(rng.Intn(128))
	}
	return func(i, j int) float64 {
		g := float64(j - i)
		return off[i] + off[j] + g*g
	}
}

// TestMLinkPathFacade covers the public M-link surface: costs and path
// shapes against the reference DP across the strategy switchover, and
// the screen/validation error contract.
func TestMLinkPathFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := 30
	w := mlinkTestWeight(rng, n)
	for _, M := range []int{1, 2, 7, 13, 30} {
		cost, path, err := MLinkPath(n, w, M)
		if err != nil {
			t.Fatalf("M=%d: %v", M, err)
		}
		refCost, _ := minplus.MLinkBrute(n, minplus.Weight(w), M)
		if math.Abs(cost-refCost) > 1e-6*(1+math.Abs(refCost)) {
			t.Fatalf("M=%d: cost %g, reference %g", M, cost, refCost)
		}
		if len(path) != M+1 || path[0] != 0 || path[M] != n {
			t.Fatalf("M=%d: malformed path %v", M, path)
		}
		for s := 1; s <= M; s++ {
			if path[s] <= path[s-1] {
				t.Fatalf("M=%d: path not strictly increasing: %v", M, path)
			}
		}
	}

	// The sampled screen rejects a concave (non-Monge) gap weight.
	concave := LinkWeight(func(i, j int) float64 {
		g := float64(j - i)
		return -g * g
	})
	if _, _, err := MLinkPath(n, concave, 3); !errors.Is(err, ErrNotMonge) {
		t.Fatalf("concave weight: err=%v, want ErrNotMonge", err)
	}
	if _, _, err := MLinkPath(n, nil, 3); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("nil weight: err=%v, want ErrDimensionMismatch", err)
	}
	if _, _, err := MLinkPath(0, w, 3); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("n=0: err=%v, want ErrDimensionMismatch", err)
	}
	// More links than nodes: unreachable, +Inf and no path, not an error.
	cost, path, err := MLinkPath(5, w, 9)
	if err != nil || !math.IsInf(cost, 1) || path != nil {
		t.Fatalf("M>n: (%g, %v, %v), want (+Inf, nil, nil)", cost, path, err)
	}
}

// TestDriverPoolMinPlus covers the pool surface of the (min,+) kinds:
// Submit tickets, the Do lifecycle, and per-query cancellation. Their
// rejections are in TestDriverPoolScreens.
func TestDriverPoolMinPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a := marray.RandomMongeInt(rng, 16, 21, 5)
	b := marray.RandomMongeInt(rng, 21, 13, 5)
	n := 24
	w := mlinkTestWeight(rng, n)

	dp := NewDriverPoolOpts(CRCW, PoolOptions{Workers: 2})
	defer dp.Close()

	ctx := context.Background()
	tk, err := dp.Submit(ctx, MinPlusRequest(a, b))
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Result()
	if res.Err != nil || res.Prod == nil {
		t.Fatalf("pool minplus: %+v", res)
	}
	want, wit := minplus.MultiplyNaive(a, b)
	for i := 0; i < a.Rows(); i++ {
		for k := 0; k < b.Cols(); k++ {
			if res.Prod.At(i, k) != want.At(i, k) || res.Prod.Witness(i, k) != wit[i][k] {
				t.Fatalf("pool product diverges from naive at (%d,%d)", i, k)
			}
		}
	}

	tk, err = dp.Submit(ctx, MLinkPathRequest(n, w, 5))
	if err != nil {
		t.Fatal(err)
	}
	res = tk.Result()
	refCost, _ := minplus.MLinkBrute(n, minplus.Weight(w), 5)
	if res.Err != nil || math.Abs(res.Cost-refCost) > 1e-6*(1+math.Abs(refCost)) || len(res.Idx) != 6 {
		t.Fatalf("pool mlink: %+v, reference cost %g", res, refCost)
	}

	if r := dp.Do(ctx, MinPlusRequest(a, b)); r.Err != nil || r.Prod == nil ||
		r.Prod.At(2, 3) != want.At(2, 3) {
		t.Fatalf("Do minplus: %+v", r)
	}
	if r := dp.Do(ctx, MLinkPathRequest(n, w, 5)); r.Err != nil ||
		math.Abs(r.Cost-refCost) > 1e-6*(1+math.Abs(refCost)) {
		t.Fatalf("Do mlink: %+v", r)
	}

	// A canceled per-query context resolves the ticket with ErrCanceled.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	tk, err = dp.Submit(canceled, MinPlusRequest(a, b))
	if err == nil {
		if res := tk.Result(); !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("canceled ctx: err=%v, want ErrCanceled", res.Err)
		}
	} else if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled submit: err=%v, want ErrCanceled", err)
	}
	tk, err = dp.Submit(canceled, MLinkPathRequest(n, w, 3))
	if err == nil {
		if res := tk.Result(); !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("canceled mlink ctx: err=%v, want ErrCanceled", res.Err)
		}
	} else if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled mlink submit: err=%v, want ErrCanceled", err)
	}
}
