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
	"monge/internal/mindex"
)

// BENCH_index.json (schema monge-index/v1) is the committed
// preprocessing-vs-query-latency baseline of the submatrix-maximum
// index, recorded by
//
//	mongebench -index -index-out BENCH_index.json
//
// For each ladder size it records the one-time build cost, the index
// footprint, the p50/p95 per-query latency over random submatrix
// queries, and the cost of an uncached single SMAWK row-minima call on
// the same matrix — the no-index price per query. TestIndexBaseline
// keeps the file honest (schema, full ladder, internal consistency) and
// enforces the acceptance the recording must demonstrate on any
// machine: at the largest size the indexed p95 beats the uncached SMAWK
// call by at least the committed min_speedup_p95 factor. Absolute
// nanosecond values are machine-dependent and not gated.
type indexBaseline struct {
	Schema        string  `json:"schema"`
	CPUs          int     `json:"cpus"`
	Seed          int64   `json:"seed"`
	Queries       int     `json:"queries_per_point"`
	MinSpeedupP95 float64 `json:"min_speedup_p95"`
	Points        []struct {
		N                int     `json:"n"`
		BuildNS          int64   `json:"build_ns"`
		IndexBytes       int64   `json:"index_bytes"`
		Breakpoints      int     `json:"breakpoints"`
		Queries          int     `json:"queries"`
		QueryP50NS       int64   `json:"query_p50_ns"`
		QueryP95NS       int64   `json:"query_p95_ns"`
		SmawkRowMinimaNS int64   `json:"smawk_row_minima_ns"`
		SpeedupP95       float64 `json:"speedup_p95"`
	} `json:"points"`
}

// TestIndexBaseline validates the committed index-latency baseline: a
// complete, self-consistent ladder whose largest size demonstrates the
// point of the index — per-query cost an order of magnitude below a
// fresh SMAWK pass.
func TestIndexBaseline(t *testing.T) {
	raw, err := os.ReadFile("BENCH_index.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var b indexBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCH_index.json: %v", err)
	}
	if b.Schema != "monge-index/v1" {
		t.Fatalf("BENCH_index.json schema %q, want monge-index/v1", b.Schema)
	}
	if b.CPUs < 1 || b.Queries <= 0 {
		t.Fatalf("baseline provenance incomplete: cpus=%d queries_per_point=%d", b.CPUs, b.Queries)
	}
	if b.MinSpeedupP95 < 12 {
		t.Fatalf("min_speedup_p95 %g weakens the committed acceptance bound of 12", b.MinSpeedupP95)
	}
	wantN := []int{256, 1024, 4096}
	if len(b.Points) != len(wantN) {
		t.Fatalf("%d ladder sizes, want %d (256, 1024, 4096)", len(b.Points), len(wantN))
	}
	for i, p := range b.Points {
		if p.N != wantN[i] {
			t.Fatalf("point %d has n=%d, want %d", i, p.N, wantN[i])
		}
		if p.BuildNS <= 0 || p.IndexBytes <= 0 || p.Breakpoints <= 0 {
			t.Errorf("n=%d: build_ns=%d index_bytes=%d breakpoints=%d must all be positive",
				p.N, p.BuildNS, p.IndexBytes, p.Breakpoints)
		}
		if p.Queries != b.Queries {
			t.Errorf("n=%d recorded %d queries, ladder says %d per point", p.N, p.Queries, b.Queries)
		}
		if !(p.QueryP50NS > 0 && p.QueryP50NS <= p.QueryP95NS) {
			t.Errorf("n=%d query percentiles not positive and monotone: p50=%d p95=%d",
				p.N, p.QueryP50NS, p.QueryP95NS)
		}
		if p.SmawkRowMinimaNS <= 0 {
			t.Errorf("n=%d smawk_row_minima_ns=%d, want > 0", p.N, p.SmawkRowMinimaNS)
		}
		wantSpeedup := float64(p.SmawkRowMinimaNS) / float64(p.QueryP95NS)
		if diff := p.SpeedupP95 - wantSpeedup; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("n=%d speedup_p95 %g inconsistent with smawk/p95 = %g", p.N, p.SpeedupP95, wantSpeedup)
		}
	}
	// The acceptance: at the largest size the index must be at least
	// min_speedup_p95 times faster per query than an uncached SMAWK call.
	if top := b.Points[len(b.Points)-1]; top.SpeedupP95 < b.MinSpeedupP95 {
		t.Errorf("n=%d speedup_p95 %.1fx below the committed bound %.0fx — re-record BENCH_index.json",
			top.N, top.SpeedupP95, b.MinSpeedupP95)
	}
}

// TestBuildIndexFacade covers the public index API end to end: build
// over Monge and staircase inputs, direct queries against the brute
// oracle, and the typed error contract.
func TestBuildIndexFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(31))

	for _, tc := range []struct {
		name string
		a    Matrix
	}{
		{"dense-monge", marray.RandomMongeInt(rng, 40, 56, 4)},
		{"func-monge", NewFunc(56, 40, marray.RandomMonge(rng, 56, 40).At)},
		{"staircase", marray.RandomStaircaseMonge(rng, 32, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := BuildIndex(tc.a)
			if err != nil {
				t.Fatalf("BuildIndex: %v", err)
			}
			m, n := tc.a.Rows(), tc.a.Cols()
			for k := 0; k < 25; k++ {
				r1, c1 := rng.Intn(m), rng.Intn(n)
				r2, c2 := r1+rng.Intn(m-r1), c1+rng.Intn(n-c1)
				pos, err := IndexSubmatrixMax(ix, r1, r2, c1, c2)
				if err != nil {
					t.Fatalf("IndexSubmatrixMax: %v", err)
				}
				if want := mindex.SubmatrixMaxBrute(tc.a, r1, r2, c1, c2); pos != want {
					t.Fatalf("[%d:%d,%d:%d]: got %+v, want %+v", r1, r2, c1, c2, pos, want)
				}
			}
			idx, err := IndexRangeRowMinima(ix, 0, m-1)
			if err != nil {
				t.Fatalf("IndexRangeRowMinima: %v", err)
			}
			for r := 0; r < m; r++ {
				best, bj := math.Inf(1), -1
				for j := 0; j < n; j++ {
					if v := tc.a.At(r, j); v < best {
						best, bj = v, j
					}
				}
				if idx[r] != bj {
					t.Fatalf("row %d: got %d, want %d", r, idx[r], bj)
				}
			}
		})
	}

	// The sampled screen rejects a non-Monge input before building.
	notMonge := FromRows([][]float64{{5, 0}, {0, 5}})
	if _, err := BuildIndex(notMonge); !errors.Is(err, ErrNotMonge) {
		t.Fatalf("BuildIndex(non-Monge): err=%v, want ErrNotMonge", err)
	}
	// Nil index and bad ranges are typed, not panics.
	if _, err := IndexSubmatrixMax(nil, 0, 0, 0, 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("nil index: err=%v, want ErrDimensionMismatch", err)
	}
	ix, err := BuildIndex(marray.RandomMonge(rng, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IndexSubmatrixMax(ix, 3, 1, 0, 7); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad rect: err=%v, want ErrDimensionMismatch", err)
	}
	if _, err := IndexRangeRowMinima(ix, 0, 8); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("row overflow: err=%v, want ErrDimensionMismatch", err)
	}
}

// TestDriverPoolIndexQueries covers the pool surface of the index
// kinds: Submit tickets, per-query contexts, and the Do lifecycle.
// Their rejections are in TestDriverPoolScreens.
func TestDriverPoolIndexQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := marray.RandomMongeInt(rng, 48, 48, 5)
	ix, err := BuildIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	dp := NewDriverPool(CRCW, 2)
	defer dp.Close()

	ctx := context.Background()
	tk, err := dp.Submit(ctx, SubmatrixMaxRequest(ix, 4, 40, 3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Result(); res.Err != nil || res.Pos != mindex.SubmatrixMaxBrute(a, 4, 40, 3, 30) {
		t.Fatalf("pool submax: %+v", res)
	}
	tk, err = dp.Submit(ctx, RangeRowMinimaRequest(ix, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Result()
	if res.Err != nil || len(res.Idx) != 11 {
		t.Fatalf("pool range-row-minima: %+v", res)
	}
	if res2 := dp.Do(ctx, SubmatrixMaxRequest(ix, 0, 47, 0, 47)); res2.Err != nil ||
		res2.Pos != mindex.SubmatrixMaxBrute(a, 0, 47, 0, 47) {
		t.Fatalf("Do submax: %+v", res2)
	}
	if res2 := dp.Do(ctx, RangeRowMinimaRequest(ix, 0, 47)); res2.Err != nil || len(res2.Idx) != 48 {
		t.Fatalf("Do range-row-minima: %+v", res2)
	}

	// A canceled per-query context resolves the ticket with ErrCanceled.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	tk, err = dp.Submit(canceled, SubmatrixMaxRequest(ix, 0, 47, 0, 47))
	if err == nil {
		if res := tk.Result(); !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("canceled ctx: err=%v, want ErrCanceled", res.Err)
		}
	} else if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled submit: err=%v, want ErrCanceled", err)
	}
}
