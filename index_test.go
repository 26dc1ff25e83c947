package monge

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"monge/internal/marray"
	"monge/internal/mindex"
)

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
	dp := NewDriverPoolOpts(CRCW, PoolOptions{Workers: 2})
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
