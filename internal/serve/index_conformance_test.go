package serve

// Conformance suite for the index-backed query kinds (SubmatrixMax,
// RangeRowMinima): the serving pool must answer them index-exact against
// independent brute-force oracles while the full load discipline —
// ordering, cancellation, drain, shutdown — keeps holding. Everything
// here is meant to run under -race; the three-submitter shape matches
// the rest of the serve conformance tests.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/mindex"
	"monge/internal/pram"
)

// bruteRowMin is the O(n) leftmost-row-minimum oracle, -1 when the row
// is fully blocked — the RangeRowMinima contract.
func bruteRowMin(a marray.Matrix, r int) int {
	best, bj := math.Inf(1), -1
	for j := 0; j < a.Cols(); j++ {
		if v := a.At(r, j); v < best {
			best, bj = v, j
		}
	}
	return bj
}

// indexMix builds three shared indexes over distinct backings (dense
// integer ties, Func-backed reals, ∞-heavy staircase) plus a fuzz-seeded
// mix of index queries over them, with the brute-oracle answer for each.
// When inj is non-nil the index builds run with that injector on the
// build path, so the mix also proves fault-disciplined builds serve
// exact answers.
func indexMix(seed int64, inj *faults.Injector) ([]Query, []Result) {
	rng := rand.New(rand.NewSource(seed))
	stair := marray.RandomStaircaseMonge(rng, 40, 40)
	bound := make([]int, 40)
	for i := range bound {
		bound[i] = marray.BoundaryOf(stair, i)
	}
	mats := []marray.Matrix{
		marray.RandomMongeInt(rng, 64, 48, 3),
		asFunc(marray.RandomMonge(rng, 48, 64)),
		// StairFunc (not asFunc) so the index sees the Staircase interface,
		// as staircase serving inputs must.
		marray.StairFunc{M: 40, N: 40, F: stair.At, Bound: func(i int) int { return bound[i] }},
	}
	var qs []Query
	var want []Result
	for _, a := range mats {
		ix := mindex.Build(a, mindex.Opts{Faults: inj})
		m, n := a.Rows(), a.Cols()
		for k := 0; k < 12; k++ {
			r1 := rng.Intn(m)
			r2 := r1 + rng.Intn(m-r1)
			c1 := rng.Intn(n)
			c2 := c1 + rng.Intn(n-c1)
			qs = append(qs, Query{Kind: SubmatrixMax, Index: ix, R1: r1, R2: r2, C1: c1, C2: c2})
			want = append(want, Result{Pos: mindex.SubmatrixMaxBrute(a, r1, r2, c1, c2)})
		}
		for k := 0; k < 6; k++ {
			r1 := rng.Intn(m)
			r2 := r1 + rng.Intn(m-r1)
			idx := make([]int, 0, r2-r1+1)
			for r := r1; r <= r2; r++ {
				idx = append(idx, bruteRowMin(a, r))
			}
			qs = append(qs, Query{Kind: RangeRowMinima, Index: ix, R1: r1, R2: r2})
			want = append(want, Result{Idx: idx})
		}
	}
	rng.Shuffle(len(qs), func(i, j int) {
		qs[i], qs[j] = qs[j], qs[i]
		want[i], want[j] = want[j], want[i]
	})
	return qs, want
}

func assertIndexResult(t *testing.T, i int, q Query, got, want Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("query %d failed: %v", i, got.Err)
	}
	switch q.Kind {
	case SubmatrixMax:
		if got.Pos != want.Pos {
			t.Fatalf("query %d [%d:%d,%d:%d]: pool %+v, brute %+v",
				i, q.R1, q.R2, q.C1, q.C2, got.Pos, want.Pos)
		}
	case RangeRowMinima:
		for r := range want.Idx {
			if got.Idx[r] != want.Idx[r] {
				t.Fatalf("query %d row %d: pool %d, brute %d", i, q.R1+r, got.Idx[r], want.Idx[r])
			}
		}
	}
}

// TestIndexConcurrentPoolConformance is the index-kind analogue of
// TestConcurrentPoolMatchesSequential: three submitters sharing the
// pool, every answer index-exact against brute oracles, with and
// without fault injection at 0.05 on the index build path.
func TestIndexConcurrentPoolConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		inj  *faults.Injector
	}{
		{"plain", nil},
		{"build-faults-0.05", faults.New(1, 0.05)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qs, want := indexMix(42, tc.inj)
			p := New(pram.CRCW, Options{Workers: 4})
			defer p.Close()

			got := make([]Result, len(qs))
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < len(qs); i += 3 {
						tk, err := p.Submit(qs[i])
						if err != nil {
							t.Errorf("submit %d: %v", i, err)
							return
						}
						got[i] = tk.Result()
					}
				}(g)
			}
			wg.Wait()
			for i := range qs {
				assertIndexResult(t, i, qs[i], got[i], want[i])
			}
			if tc.inj != nil && tc.inj.Stats().BuildFaults == 0 {
				t.Error("fault injector never fired on the build path")
			}
		})
	}
}

// TestIndexStreamOrdering pins ticket/answer association under
// concurrency: every ticket resolves with the answer to its own query,
// in submission order, even when the queries are distinguishable only
// by their answers.
func TestIndexStreamOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := marray.RandomMongeInt(rng, 128, 96, 5)
	ix := mindex.Build(a, mindex.Opts{})
	p := New(pram.CRCW, Options{Workers: 3})
	defer p.Close()

	const K = 64
	tks := make([]*Ticket, K)
	want := make([]mindex.Pos, K)
	for i := 0; i < K; i++ {
		r1, c1 := rng.Intn(128), rng.Intn(96)
		r2 := r1 + rng.Intn(128-r1)
		c2 := c1 + rng.Intn(96-c1)
		want[i] = mindex.SubmatrixMaxBrute(a, r1, r2, c1, c2)
		tk, err := p.Submit(Query{Kind: SubmatrixMax, Index: ix, R1: r1, R2: r2, C1: c1, C2: c2})
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	for i, tk := range tks {
		res := tk.Result()
		if res.Err != nil {
			t.Fatalf("ticket %d: %v", i, res.Err)
		}
		if res.Pos != want[i] {
			t.Fatalf("ticket %d resolved with %+v, its query's answer is %+v", i, res.Pos, want[i])
		}
	}
}

// TestIndexPoolCancellation pins the contract of the index kinds, which
// are answered on the submitting goroutine: with the single worker held
// by a slow row query, an index ticket is already resolved with the
// brute answer when SubmitCtx returns — no head-of-line blocking. An
// already-canceled context still yields merr.ErrCanceled, an expired
// one ErrDeadlineExceeded, and a canceled pool context
// merr.ErrCanceled, all without evaluating.
func TestIndexPoolCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := marray.RandomMonge(rng, 32, 32)
	ix := mindex.Build(a, mindex.Opts{})
	submax := Query{Kind: SubmatrixMax, Index: ix, R1: 3, R2: 28, C1: 5, C2: 30}
	rows := Query{Kind: RangeRowMinima, Index: ix, R1: 4, R2: 20}
	p := New(pram.CRCW, Options{Workers: 1, QueueDepth: 4})
	defer p.Close()

	// Hold the single worker, then ask the index behind it.
	slow, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 3*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for _, q := range []Query{submax, rows} {
		tk, err := p.SubmitCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-tk.Done():
		default:
			t.Fatalf("kind %d: ticket unresolved when SubmitCtx returned; it queued behind the busy worker", q.Kind)
		}
		want := Result{Pos: mindex.SubmatrixMaxBrute(a, q.R1, q.R2, q.C1, q.C2)}
		if q.Kind == RangeRowMinima {
			want = Result{}
			for r := q.R1; r <= q.R2; r++ {
				want.Idx = append(want.Idx, bruteRowMin(a, r))
			}
		}
		assertIndexResult(t, int(q.Kind), q, tk.Result(), want)
	}
	select {
	case <-slow.Done():
		t.Fatal("the slow row query finished first; the worker was not held")
	default:
	}

	// submitErr is the error of a submission, whether SubmitCtx returns
	// it or the ticket resolves with it.
	submitErr := func(p *Pool, ctx context.Context, q Query) error {
		tk, err := p.SubmitCtx(ctx, q)
		if err != nil {
			return err
		}
		return tk.Result().Err
	}
	cancel()
	expired, ecancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer ecancel()
	for _, q := range []Query{submax, rows} {
		if err := submitErr(p, ctx, q); !errors.Is(err, merr.ErrCanceled) {
			t.Fatalf("kind %d, canceled context: err=%v, want merr.ErrCanceled", q.Kind, err)
		}
		if err := submitErr(p, expired, q); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("kind %d, expired context: err=%v, want ErrDeadlineExceeded", q.Kind, err)
		}
	}

	pctx, pcancel := context.WithCancel(context.Background())
	pp := New(pram.CRCW, Options{Workers: 1, Context: pctx})
	defer pp.Close()
	pcancel()
	for _, q := range []Query{submax, rows} {
		if err := submitErr(pp, context.Background(), q); !errors.Is(err, merr.ErrCanceled) {
			t.Fatalf("kind %d, canceled pool context: err=%v, want merr.ErrCanceled", q.Kind, err)
		}
	}
}

// TestIndexPoolValidation pins the typed error mapping: a nil index and
// an out-of-range rectangle both resolve in-band with
// merr.ErrDimensionMismatch, never a panic.
func TestIndexPoolValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := mindex.Build(marray.RandomMonge(rng, 8, 8), mindex.Opts{})
	p := New(pram.CRCW, Options{Workers: 2})
	defer p.Close()

	for name, q := range map[string]Query{
		"nil-index-submax": {Kind: SubmatrixMax, R1: 0, R2: 0, C1: 0, C2: 0},
		"nil-index-range":  {Kind: RangeRowMinima, R1: 0, R2: 0},
		"bad-rect":         {Kind: SubmatrixMax, Index: ix, R1: 3, R2: 1, C1: 0, C2: 7},
		"col-overflow":     {Kind: SubmatrixMax, Index: ix, R1: 0, R2: 7, C1: 0, C2: 8},
		"bad-row-range":    {Kind: RangeRowMinima, Index: ix, R1: -1, R2: 3},
	} {
		tk, err := p.Submit(q)
		if err != nil {
			t.Fatalf("%s: submit: %v", name, err)
		}
		if res := tk.Result(); !errors.Is(res.Err, merr.ErrDimensionMismatch) {
			t.Fatalf("%s: err=%v, want merr.ErrDimensionMismatch", name, res.Err)
		}
	}
}

// TestIndexPoolShutdown pins the shutdown contract around index
// traffic: double (and concurrent) Close after index queries drains
// cleanly, Submit afterwards reports ErrClosed, and no goroutine
// outlives the pool.
func TestIndexPoolShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(13))
	ix := mindex.Build(asFunc(marray.RandomMonge(rng, 64, 64)), mindex.Opts{})
	p := New(pram.CRCW, Options{Workers: 3})
	for i := 0; i < 16; i++ {
		if _, err := p.Submit(Query{Kind: SubmatrixMax, Index: ix, R1: 0, R2: 63, C1: i, C2: 63}); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	p.Close()
	if _, err := p.Submit(Query{Kind: SubmatrixMax, Index: ix, R1: 0, R2: 0, C1: 0, C2: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err=%v, want ErrClosed", err)
	}
	waitGoroutines(t, base)
}

// TestIndexPoolStats pins the serving counters around the index kinds:
// they count in Stats.Queries but in no shard's PerWorker count, since
// no shard served them.
func TestIndexPoolStats(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ix := mindex.Build(marray.RandomMonge(rng, 16, 16), mindex.Opts{})
	p := New(pram.CRCW, Options{Workers: 2})
	defer p.Close()
	for i := 0; i < 10; i++ {
		if _, err := p.Submit(Query{Kind: RangeRowMinima, Index: ix, R1: i, R2: 15}); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := p.Submit(smallQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	tk.Result()
	st := p.Stats()
	var shards int64
	for _, n := range st.PerWorker {
		shards += n
	}
	if st.Queries != 11 || shards != 1 {
		t.Fatalf("Queries=%d, shard total %d (%v); want 11 answered, 1 by a shard", st.Queries, shards, st.PerWorker)
	}
}
