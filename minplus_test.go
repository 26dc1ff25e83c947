package monge

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"monge/internal/marray"
	"monge/internal/minplus"
)

// BENCH_minplus.json (schema monge-minplus/v1) is the committed
// (min,+) multiplication baseline, recorded by
//
//	mongebench -minplus -minplus-out BENCH_minplus.json
//
// For each ladder size it records the engine and naive O(n³) multiply
// latencies (naive skipped past n=1024), the product's run-length core
// size, and the M-link solver against its O(n²M) reference DP.
// TestMinPlusBaseline keeps the file honest and enforces the
// acceptance: at n = gate_n the SMAWK-backed engine must beat the naive
// multiply by at least min_engine_over_naive. The reduction is
// algorithmic — O(n²) vs O(n³) entry evaluations — so the ratio holds
// on any machine; absolute nanoseconds are not gated.
type minplusBaseline struct {
	Schema             string  `json:"schema"`
	CPUs               int     `json:"cpus"`
	Seed               int64   `json:"seed"`
	GateN              int     `json:"gate_n"`
	MinEngineOverNaive float64 `json:"min_engine_over_naive"`
	Points             []struct {
		N               int     `json:"n"`
		EngineNS        int64   `json:"engine_ns"`
		NaiveNS         int64   `json:"naive_ns"`
		EngineOverNaive float64 `json:"engine_over_naive"`
		Runs            int     `json:"runs"`
		DenseCells      int     `json:"dense_cells"`
		MLinkM          int     `json:"mlink_m"`
		MLinkNS         int64   `json:"mlink_ns"`
		MLinkRefNS      int64   `json:"mlink_ref_ns"`
		MLinkSpeedup    float64 `json:"mlink_speedup"`
	} `json:"points"`
}

// TestMinPlusBaseline validates the committed (min,+) baseline: a
// complete, self-consistent ladder whose gate size demonstrates the
// point of the engine — a product an order of magnitude (and more)
// cheaper than the cubic scan.
func TestMinPlusBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_minplus.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var b minplusBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCH_minplus.json: %v", err)
	}
	if b.Schema != "monge-minplus/v1" {
		t.Fatalf("BENCH_minplus.json schema %q, want monge-minplus/v1", b.Schema)
	}
	if b.CPUs < 1 {
		t.Fatalf("baseline provenance incomplete: cpus=%d", b.CPUs)
	}
	if b.MinEngineOverNaive < 20 {
		t.Fatalf("min_engine_over_naive %g weakens the committed acceptance bound of 20", b.MinEngineOverNaive)
	}
	wantN := []int{256, 1024, 4096}
	if len(b.Points) != len(wantN) {
		t.Fatalf("%d ladder sizes, want %d (256, 1024, 4096)", len(b.Points), len(wantN))
	}
	gateSeen := false
	for i, p := range b.Points {
		if p.N != wantN[i] {
			t.Fatalf("point %d has n=%d, want %d", i, p.N, wantN[i])
		}
		if p.EngineNS <= 0 {
			t.Errorf("n=%d engine_ns=%d, want > 0", p.N, p.EngineNS)
		}
		if p.DenseCells != p.N*p.N {
			t.Errorf("n=%d dense_cells=%d, want n²=%d", p.N, p.DenseCells, p.N*p.N)
		}
		// The core is at least one run per output row and never denser
		// than the dense representation it replaces.
		if p.Runs < p.N || p.Runs > p.DenseCells {
			t.Errorf("n=%d runs=%d outside [n, n²]", p.N, p.Runs)
		}
		if p.NaiveNS > 0 {
			want := float64(p.NaiveNS) / float64(p.EngineNS)
			if diff := p.EngineOverNaive - want; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("n=%d engine_over_naive %g inconsistent with naive/engine = %g",
					p.N, p.EngineOverNaive, want)
			}
		}
		if p.MLinkM <= 0 || p.MLinkNS <= 0 || p.MLinkRefNS <= 0 {
			t.Errorf("n=%d M-link columns incomplete: m=%d ns=%d ref_ns=%d",
				p.N, p.MLinkM, p.MLinkNS, p.MLinkRefNS)
		}
		if want := float64(p.MLinkRefNS) / float64(p.MLinkNS); math.Abs(p.MLinkSpeedup-want) > 1e-6 {
			t.Errorf("n=%d mlink_speedup %g inconsistent with ref/engine = %g", p.N, p.MLinkSpeedup, want)
		}
		if p.N == b.GateN {
			gateSeen = true
			if p.NaiveNS <= 0 {
				t.Errorf("gate size n=%d has no naive measurement", p.N)
			}
			if p.EngineOverNaive < b.MinEngineOverNaive {
				t.Errorf("n=%d engine_over_naive %.1fx below the committed bound %.0fx — re-record BENCH_minplus.json",
					p.N, p.EngineOverNaive, b.MinEngineOverNaive)
			}
		}
	}
	if !gateSeen {
		t.Fatalf("gate_n=%d is not a ladder size", b.GateN)
	}
}

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

	// MustMinPlus / MustMLinkPath happy paths agree with the checked API.
	p := MustMinPlus(marray.RandomMongeInt(rng, 9, 9, 4), marray.RandomMongeInt(rng, 9, 9, 4))
	if p.Rows() != 9 || p.Cols() != 9 {
		t.Fatalf("MustMinPlus product %dx%d, want 9x9", p.Rows(), p.Cols())
	}
	mc, mp := MustMLinkPath(n, w, 4)
	cc, cp, err := MLinkPath(n, w, 4)
	if err != nil || mc != cc || len(mp) != len(cp) {
		t.Fatalf("Must vs checked: (%g, %v) vs (%g, %v, %v)", mc, mp, cc, cp, err)
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

	dp := NewDriverPool(CRCW, 2)
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
