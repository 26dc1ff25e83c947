package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monge/internal/batch"
	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
)

// asFunc re-exposes a materialized matrix as an implicit one, the input
// form of the serving workloads.
func asFunc(d *marray.Dense) marray.Matrix {
	return marray.Func{M: d.Rows(), N: d.Cols(), F: d.At}
}

// queryMix builds a fuzz-seeded mix of all three query kinds over mixed
// shapes and backings (implicit and dense), the workload every
// conformance test in this file shards.
func queryMix(seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []Query
	for _, sh := range []struct{ m, n int }{{16, 16}, {1, 33}, {48, 9}, {16, 16}, {7, 25}} {
		qs = append(qs,
			Query{Kind: RowMinima, A: asFunc(marray.RandomMonge(rng, sh.m, sh.n))},
			Query{Kind: RowMinima, A: marray.RandomMongeInt(rng, sh.m, sh.n, 3)},
			Query{Kind: StaircaseRowMinima, A: asFunc(marray.RandomStaircaseMonge(rng, sh.m, sh.n))},
		)
	}
	for _, sh := range []struct{ p, q, r int }{{6, 6, 6}, {1, 9, 3}, {4, 2, 8}} {
		c := marray.RandomComposite(rng, sh.p, sh.q, sh.r)
		qs = append(qs, Query{Kind: TubeMaxima, C: marray.Composite{
			D: asFunc(c.D.(*marray.Dense)), E: asFunc(c.E.(*marray.Dense)),
		}})
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// sequential answers the mix on a single batch.Driver, the oracle the
// sharded pool must match index-exactly.
func sequential(t *testing.T, qs []Query) []Result {
	t.Helper()
	d := batch.New(pram.CRCW)
	defer d.Close()
	out := make([]Result, len(qs))
	for i, q := range qs {
		switch q.Kind {
		case RowMinima:
			out[i].Idx = d.RowMinima(q.A)
		case StaircaseRowMinima:
			out[i].Idx = d.StaircaseRowMinima(q.A)
		case TubeMaxima:
			out[i].TubeJ, out[i].TubeV = d.TubeMaxima(q.C)
		}
	}
	return out
}

func assertSame(t *testing.T, i int, got Result, want Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("query %d failed: %v", i, got.Err)
	}
	for r := range want.Idx {
		if got.Idx[r] != want.Idx[r] {
			t.Fatalf("query %d row %d: pool %d, sequential %d", i, r, got.Idx[r], want.Idx[r])
		}
	}
	for x := range want.TubeJ {
		for k := range want.TubeJ[x] {
			if got.TubeJ[x][k] != want.TubeJ[x][k] {
				t.Fatalf("query %d tube (%d,%d): pool j=%d, sequential j=%d",
					i, x, k, got.TubeJ[x][k], want.TubeJ[x][k])
			}
			if got.TubeV[x][k] != want.TubeV[x][k] {
				t.Fatalf("query %d tube (%d,%d): pool v=%g, sequential v=%g",
					i, x, k, got.TubeV[x][k], want.TubeV[x][k])
			}
		}
	}
}

// TestConcurrentPoolMatchesSequential is the conformance contract of the
// serving layer: a fuzz-seeded mix of all three query kinds, submitted
// from many goroutines at once, answers index-exact with a sequential
// batch.Driver — with and without fault injection at rate 0.05. Run
// under -race this also exercises every cross-goroutine handoff.
func TestConcurrentPoolMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"plain", Options{Workers: 4}},
		{"faults-0.05", Options{Workers: 4, Faults: faults.New(1, 0.05)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qs := queryMix(99)
			want := sequential(t, qs)
			p := New(pram.CRCW, tc.opt)
			defer p.Close()

			got := make([]Result, len(qs))
			var wg sync.WaitGroup
			// Several submitters sharing the pool, each owning a stripe
			// of the mix — the concurrent-clients shape.
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
				assertSame(t, i, got[i], want[i])
			}
			if st := p.Stats(); st.Queries != int64(len(qs)) {
				t.Errorf("stats counted %d queries, want %d", st.Queries, len(qs))
			}
		})
	}
}

// waitGoroutines polls until the live goroutine count drops to limit,
// mirroring the exec.Pool leak tests.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still alive, want <= %d\n%s",
				runtime.NumGoroutine(), limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolGoroutineLeak pins the shutdown contract: after Close returns,
// every worker goroutine (and the machines' private pools) are gone.
func TestPoolGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(pram.CRCW, Options{Workers: 4})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		if _, err := p.Submit(Query{Kind: RowMinima, A: marray.RandomMonge(rng, 16, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	p.Close()
	waitGoroutines(t, base)
}

// TestPoolDoubleClose pins idempotent shutdown: repeated and concurrent
// Closes all return after a complete drain, and Submit afterwards fails
// with ErrClosed instead of deadlocking or panicking.
func TestPoolDoubleClose(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 2})
	rng := rand.New(rand.NewSource(4))
	tk, err := p.Submit(Query{Kind: RowMinima, A: marray.RandomMonge(rng, 8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
	}
	wg.Wait()
	p.Close()
	if res := tk.Result(); res.Err != nil {
		t.Fatalf("query submitted before Close must still resolve, got %v", res.Err)
	}
	if _, err := p.Submit(Query{Kind: RowMinima, A: marray.RandomMonge(rng, 8, 8)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err=%v, want ErrClosed", err)
	}
}

// TestPoolCancellation pins the context passthrough: queries on a
// cancelled pool resolve with ErrCanceled on their tickets — the pool
// itself stays drainable and closeable.
func TestPoolCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(pram.CRCW, Options{Workers: 2, Context: ctx})
	defer p.Close()
	rng := rand.New(rand.NewSource(6))
	tk, err := p.Submit(Query{Kind: RowMinima, A: marray.RandomMonge(rng, 32, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Result(); !errors.Is(res.Err, merr.ErrCanceled) {
		t.Fatalf("cancelled query err=%v, want ErrCanceled", res.Err)
	}
}

// TestPoolUnknownKind pins the in-band failure contract for malformed
// queries.
func TestPoolUnknownKind(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 1})
	defer p.Close()
	tk, err := p.Submit(Query{Kind: Kind(99)})
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Result(); !errors.Is(res.Err, ErrUnknownKind) {
		t.Fatalf("unknown kind err=%v, want ErrUnknownKind", res.Err)
	}
}

// TestPoolStats checks the serving counters: shard counts sum to the
// query total.
func TestPoolStats(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 2})
	defer p.Close()
	rng := rand.New(rand.NewSource(8))
	a := asFunc(marray.RandomMonge(rng, 64, 64))
	for i := 0; i < 6; i++ {
		if _, err := p.Submit(Query{Kind: RowMinima, A: a}); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	st := p.Stats()
	if st.Queries != 6 {
		t.Fatalf("Queries=%d, want 6", st.Queries)
	}
	var sum int64
	for _, n := range st.PerWorker {
		sum += n
	}
	if sum != st.Queries {
		t.Fatalf("per-worker counts sum to %d, want %d", sum, st.Queries)
	}
	if st.Imbalance > st.Queries {
		t.Fatalf("imbalance %d exceeds query count %d", st.Imbalance, st.Queries)
	}
}

// TestPoolEvaluatesNoMoreThanDriver pins direct evaluation: a query
// served through the pool evaluates no more entries of its implicit
// input than the width-1 batch.Driver a worker runs does on the same
// input. A memoizing view that fills whole tiles would over-evaluate.
func TestPoolEvaluatesNoMoreThanDriver(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := marray.RandomMonge(rng, 100, 100)
	s := marray.RandomStaircaseMonge(rng, 100, 100)
	c := marray.RandomComposite(rng, 20, 20, 20)
	var n atomic.Int64
	counted := func(d marray.Matrix) marray.Matrix {
		return marray.Func{M: d.Rows(), N: d.Cols(), F: func(i, j int) float64 { n.Add(1); return d.At(i, j) }}
	}
	qs := map[string]Query{
		"row-minima":           {Kind: RowMinima, A: counted(a)},
		"staircase-row-minima": {Kind: StaircaseRowMinima, A: counted(s)},
		"tube-maxima":          {Kind: TubeMaxima, C: marray.Composite{D: counted(c.D), E: counted(c.E)}},
	}
	for _, be := range []batch.Backend{batch.BackendNative, batch.BackendPRAM} {
		noFaults := faults.New(0, 0)
		p := New(pram.CRCW, Options{Workers: 1, Backend: be, Faults: noFaults})
		d := batch.NewWithBackend(pram.CRCW, be)
		d.SetMachineWorkers(1)
		d.SetFaults(noFaults)
		for name, q := range qs {
			n.Store(0)
			want := answer(d, nil, q)
			direct := n.Swap(0)
			tk, err := p.Submit(q)
			if err != nil {
				t.Fatal(err)
			}
			got := tk.Result()
			served := n.Load()
			assertSame(t, 0, got, want)
			if served > direct {
				t.Errorf("%s/%s: pool evaluated %d entries, a width-1 driver %d", be, name, served, direct)
			}
		}
		d.Close()
		p.Close()
	}
}
