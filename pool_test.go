package monge

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"monge/internal/httpfront"
	"monge/internal/marray"
)

// TestDriverPoolFacade covers the public serving surface: screened
// submissions, index-exact answers versus the sequential facade, stats,
// and the closed-pool error.
func TestDriverPoolFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dp := NewDriverPoolOpts(CRCW, PoolOptions{Workers: 2})
	ctx := context.Background()

	a := marray.RandomMonge(rng, 20, 20)
	s := marray.RandomStaircaseMonge(rng, 12, 18)
	c := marray.RandomComposite(rng, 5, 5, 5)

	rt, err := dp.Submit(ctx, RowMinimaRequest(a))
	if err != nil {
		t.Fatal(err)
	}
	st, err := dp.Submit(ctx, StaircaseRowMinimaRequest(s))
	if err != nil {
		t.Fatal(err)
	}
	tt, err := dp.Submit(ctx, TubeMaximaRequest(c))
	if err != nil {
		t.Fatal(err)
	}

	wantR, err := RowMinima(a)
	if err != nil {
		t.Fatal(err)
	}
	wantS, err := StaircaseRowMinima(s)
	if err != nil {
		t.Fatal(err)
	}
	wantTJ, wantTV, err := TubeMaxima(c)
	if err != nil {
		t.Fatal(err)
	}

	if res := rt.Result(); res.Err != nil {
		t.Fatalf("row ticket: %v", res.Err)
	} else {
		for i := range wantR {
			if res.Idx[i] != wantR[i] {
				t.Fatalf("row %d: pool %d, sequential %d", i, res.Idx[i], wantR[i])
			}
		}
	}
	if res := st.Result(); res.Err != nil {
		t.Fatalf("staircase ticket: %v", res.Err)
	} else {
		for i := range wantS {
			if res.Idx[i] != wantS[i] {
				t.Fatalf("staircase row %d: pool %d, sequential %d", i, res.Idx[i], wantS[i])
			}
		}
	}
	if res := tt.Result(); res.Err != nil {
		t.Fatalf("tube ticket: %v", res.Err)
	} else {
		for x := range wantTJ {
			for k := range wantTJ[x] {
				if res.TubeJ[x][k] != wantTJ[x][k] || res.TubeV[x][k] != wantTV[x][k] {
					t.Fatalf("tube (%d,%d): pool (%d,%g), sequential (%d,%g)", x, k,
						res.TubeJ[x][k], res.TubeV[x][k], wantTJ[x][k], wantTV[x][k])
				}
			}
		}
	}

	dp.Wait()
	if stats := dp.Stats(); stats.Queries != 3 {
		t.Fatalf("stats counted %d queries, want 3", stats.Queries)
	}

	dp.Close()
	dp.Close()
	if _, err := dp.Submit(ctx, RowMinimaRequest(a)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after Close err=%v, want ErrPoolClosed", err)
	}
}

// TestDriverPoolScreens checks that every entry point screens every
// query kind the same way, on the calling goroutine: one malformed
// input per kind, run through Submit, Do and (for the kinds the HTTP
// front end speaks) POST /v1/query, yields the same typed error class
// everywhere — HTTP 400 on the wire — and nothing is ever enqueued.
func TestDriverPoolScreens(t *testing.T) {
	dp := NewDriverPoolOpts(CRCW, PoolOptions{Workers: 1})
	defer dp.Close()
	h := httpfront.New(dp.Front()).Handler()
	ix, err := BuildIndex(marray.RandomMongeInt(rand.New(rand.NewSource(5)), 8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The HTTP kinds address an index through the server's registry.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/index",
		strings.NewReader(`{"a":[[0,1],[1,0]]}`)))
	var built httpfront.IndexResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &built); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/index: %d %s", rec.Code, rec.Body)
	}

	notMonge := FromRows([][]float64{{9, 0}, {0, 9}})
	notMongeTube, err := NewComposite(notMonge, notMonge)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	// Row 1 has more finite entries than row 0: not down-closed.
	badStair := FromRows([][]float64{{1, inf}, {1, 1}})
	for _, tc := range []struct {
		name string
		req  PoolRequest
		want error
		body string // POST /v1/query body; empty for kinds HTTP does not speak
	}{
		{"row-minima/non-monge", RowMinimaRequest(notMonge), ErrNotMonge,
			`{"kind":"row-minima","a":[[9,0],[0,9]]}`},
		{"staircase/broken", StaircaseRowMinimaRequest(badStair), ErrNotStaircase,
			`{"kind":"staircase-row-minima","a":[[1,null],[1,1]]}`},
		{"tube/non-monge", TubeMaximaRequest(notMongeTube), ErrNotMonge,
			`{"kind":"tube-maxima","d":[[9,0],[0,9]],"e":[[9,0],[0,9]]}`},
		{"submax/nil-index", SubmatrixMaxRequest(nil, 0, 0, 0, 0), ErrDimensionMismatch, ""},
		{"submax/out-of-range", SubmatrixMaxRequest(ix, 0, 8, 0, 1), ErrDimensionMismatch,
			`{"kind":"submax","index_id":"` + built.IndexID + `","r1":0,"r2":8,"c1":0,"c2":1}`},
		{"range/nil-index", RangeRowMinimaRequest(nil, 0, 1), ErrDimensionMismatch, ""},
		{"range/out-of-range", RangeRowMinimaRequest(ix, -1, 3), ErrDimensionMismatch,
			`{"kind":"range-row-minima","index_id":"` + built.IndexID + `","r1":-1,"r2":1}`},
		{"minplus/non-monge", MinPlusRequest(notMonge, notMonge), ErrNotMonge, ""},
		{"mlink/nil-weight", MLinkPathRequest(6, nil, 2), ErrDimensionMismatch, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := dp.Submit(context.Background(), tc.req); !errors.Is(err, tc.want) {
				t.Errorf("Submit: err=%v, want %v", err, tc.want)
			}
			if res := dp.Do(context.Background(), tc.req); !errors.Is(res.Err, tc.want) {
				t.Errorf("Do: err=%v, want %v", res.Err, tc.want)
			}
			if tc.body != "" {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body)))
				if rec.Code != http.StatusBadRequest {
					t.Errorf("POST /v1/query: status %d, want 400: %s", rec.Code, rec.Body)
				}
			}
			if st := dp.Stats(); st.Queries != 0 || st.QueueDepth != 0 {
				t.Fatalf("screened-out input reached the pool: %+v", st)
			}
		})
	}
}
