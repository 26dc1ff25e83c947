package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/obs"
	"monge/internal/pram"
)

// slowMatrix is a Monge matrix whose entries take real wall time to
// evaluate, for tests that need queries to occupy workers long enough
// to observe queue/overload behavior.
func slowMatrix(m, n int, delay time.Duration) marray.Matrix {
	return marray.Func{M: m, N: n, F: func(i, j int) float64 {
		time.Sleep(delay)
		return float64(i*n+j) - float64(i)*float64(j) // Monge: -i*j has the right minor sign
	}}
}

func smallQuery(seed int64) Query {
	rng := rand.New(rand.NewSource(seed))
	return Query{Kind: RowMinima, A: marray.RandomMonge(rng, 12, 12)}
}

// TestSubmitCtxExpired pins fail-fast admission on an already-done
// context: nothing is enqueued, the error is typed, and a deadline
// classifies as ErrDeadlineExceeded while a plain cancel classifies as
// merr.ErrCanceled.
func TestSubmitCtxExpired(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 1})
	defer p.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := p.SubmitCtx(ctx, smallQuery(1)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: err=%v, want ErrDeadlineExceeded", err)
	}
	// The typed error must also match the stdlib sentinel so callers can
	// treat it uniformly with their own context plumbing.
	if _, err := p.SubmitCtx(ctx, smallQuery(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err=%v, want context.DeadlineExceeded match", err)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := p.SubmitCtx(cctx, smallQuery(1)); !errors.Is(err, merr.ErrCanceled) {
		t.Fatalf("canceled ctx: err=%v, want merr.ErrCanceled", err)
	}

	if st := p.Stats(); st.Queries != 0 {
		t.Fatalf("expired submissions reached the workers: %d queries served", st.Queries)
	}
}

// TestSubmitCtxUnblocksOnCancel pins the satellite fix: a submitter
// blocked on a full queue no longer holds the pool lock and unblocks
// the moment its context is done, with the typed error.
func TestSubmitCtxUnblocksOnCancel(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 1, QueueDepth: 1})
	defer p.Close()

	// Occupy the single worker with a slow query, then fill the queue.
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 2*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 2*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.SubmitCtx(ctx, Query{Kind: RowMinima, A: slowMatrix(8, 8, 2*time.Millisecond)})
		errc <- err
	}()
	// Give the submitter a moment to block on the full queue, then
	// cancel; it must return promptly even though the queue stays full.
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		// Either the queue drained first (nil) or the cancel won; if the
		// cancel won the error must be typed.
		if err != nil && !errors.Is(err, merr.ErrCanceled) {
			t.Fatalf("canceled submitter: err=%v, want merr.ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitCtx stayed blocked after its context was canceled")
	}
}

// TestTrySubmitOverload pins the fail-fast admission primitive: with the
// worker busy and the queue full, TrySubmit returns ErrOverloaded
// immediately instead of blocking.
func TestTrySubmitOverload(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 5*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	// Saturate: worker + queue slot. TrySubmit keeps failing fast until
	// one lands in the freed slot; every failure must be typed and
	// immediate.
	sawOverload := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		start := time.Now()
		_, err := p.TrySubmit(context.Background(), Query{Kind: RowMinima, A: slowMatrix(8, 8, 5*time.Millisecond)})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("TrySubmit err=%v, want ErrOverloaded", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("fail-fast rejection took %v", took)
		}
		sawOverload = true
	}
	if !sawOverload {
		t.Fatal("TrySubmit never observed a full queue; the setup no longer saturates")
	}
	p.Wait()
}

// TestQueuedDeadlineDropsBeforeEvaluation pins the worker-side deadline
// check: a query whose context expires while queued resolves with
// ErrDeadlineExceeded without being evaluated.
func TestQueuedDeadlineDropsBeforeEvaluation(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 1, QueueDepth: 4})
	defer p.Close()

	// Block the worker long enough for the short-deadline query to
	// expire in the queue behind it.
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 3*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	evaluated := false
	poison := Query{Kind: RowMinima, A: marray.Func{M: 4, N: 4, F: func(i, j int) float64 {
		evaluated = true
		return float64(i + j)
	}}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	tk, err := p.SubmitCtx(ctx, poison)
	if err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	res := tk.Result()
	if !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("queued-expired query err=%v, want ErrDeadlineExceeded", res.Err)
	}
	p.Wait()
	if evaluated {
		t.Fatal("expired query was evaluated; it must be dropped at dequeue")
	}
}

// TestCloseRacesSubmitCtx pins the shutdown contract under contention:
// concurrent SubmitCtx callers (some with expired or canceling
// contexts) racing Close must each get either a resolved ticket or a
// typed error, with no hangs and no goroutine leaks.
func TestCloseRacesSubmitCtx(t *testing.T) {
	base := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		p := New(pram.CRCW, Options{Workers: 2, QueueDepth: 2})
		expired, expCancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
		live, liveCancel := context.WithCancel(context.Background())

		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := live
				if g%3 == 0 {
					ctx = expired
				}
				tk, err := p.SubmitCtx(ctx, smallQuery(int64(g)))
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDeadlineExceeded) &&
						!errors.Is(err, merr.ErrCanceled) {
						t.Errorf("round %d submitter %d: untyped error %v", round, g, err)
					}
					return
				}
				res := tk.Result()
				if res.Err != nil && !errors.Is(res.Err, ErrDeadlineExceeded) &&
					!errors.Is(res.Err, merr.ErrCanceled) {
					t.Errorf("round %d submitter %d: untyped result error %v", round, g, res.Err)
				}
			}(g)
		}
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
		wg.Add(1)
		go func() { defer wg.Done(); liveCancel() }()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Close racing SubmitCtx hung", round)
		}
		p.Close()
		expCancel()
	}
	waitGoroutines(t, base)
}

// TestRejectedTicketsLeakNothing pins the goroutine-leak regression for
// the new rejection paths: rejected (TrySubmit) and expired (SubmitCtx)
// submissions leave no goroutine and no inflight registration behind —
// Close does not wait on ghosts.
func TestRejectedTicketsLeakNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(pram.CRCW, Options{Workers: 1, QueueDepth: 1})
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 2*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	rejections := 0
	for i := 0; i < 200; i++ {
		if _, err := p.TrySubmit(context.Background(), smallQuery(int64(i))); err != nil {
			rejections++
		}
		if _, err := p.SubmitCtx(expired, smallQuery(int64(i))); err == nil {
			t.Fatal("expired SubmitCtx succeeded")
		}
	}
	if rejections == 0 {
		t.Fatal("no TrySubmit rejections; the saturation setup is broken")
	}
	// Close must return promptly: if a rejection leaked an inflight
	// registration, the drain would hang on it.
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung after rejected submissions: leaked inflight registration")
	}
	waitGoroutines(t, base)
}

// TestDrainingStateObservable pins the graceful-shutdown state machine:
// serving -> draining (while a slow query resolves) -> closed.
func TestDrainingStateObservable(t *testing.T) {
	p := New(pram.CRCW, Options{Workers: 1})
	if st := p.Stats().State; st != StateServing {
		t.Fatalf("fresh pool state %q, want %q", st, StateServing)
	}
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, 2*time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	go p.Close()
	deadline := time.Now().Add(10 * time.Second)
	sawDraining := false
	for time.Now().Before(deadline) {
		switch p.Stats().State {
		case StateDraining:
			sawDraining = true
		case StateClosed:
			if !sawDraining {
				// The drain can be too fast to observe on an unloaded
				// machine; that is not a failure of the state machine.
				t.Log("pool closed before draining was observed (fast drain)")
			}
			p.Close() // idempotent; also synchronizes with the goroutine above
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("pool never reached %q", StateClosed)
}

// TestQueueDepthAccounting pins the satellite obs fix: the queue-depth
// peak is recorded at enqueue (after the send), so a burst that fills
// the queue reports a nonzero peak, and the gauge returns to zero after
// the drain.
func TestQueueDepthAccounting(t *testing.T) {
	o := obs.NewObserver()
	prev := obs.Global()
	obs.SetGlobal(o)
	defer obs.SetGlobal(prev)

	p := New(pram.CRCW, Options{Workers: 1, QueueDepth: 8})
	// One slow query to occupy the worker, then a burst that sits in the
	// queue behind it.
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Submit(smallQuery(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	p.Close()

	snap := o.Site("serve")
	if peak := snap.Load(obs.QueueDepthPeak); peak < 2 {
		t.Fatalf("queue depth peak %d after a 6-deep burst, want >= 2 (pre-send sampling regression)",
			peak)
	}
	if depth := snap.Load(obs.QueueDepth); depth != 0 {
		t.Fatalf("queue depth gauge %d after drain, want 0", depth)
	}
	var waits int64
	for _, b := range snap.QueueWait.Snapshot() {
		waits += b
	}
	if waits < 6 {
		t.Fatalf("queue-wait histogram recorded %d waits, want >= 6", waits)
	}
	if p50, p99 := snap.QueueWait.Quantile(0.50), snap.QueueWait.Quantile(0.99); p50 < 0 || p99 < p50 {
		t.Fatalf("queue-wait percentiles inconsistent: p50=%v p99=%v", p50, p99)
	}
}

// TestShardImbalanceLive pins the shard_imbalance gauge as a live
// reading: with an observer installed it tracks Stats().Imbalance while
// the pool serves, not only once Close has run.
func TestShardImbalanceLive(t *testing.T) {
	o := obs.NewObserver()
	prev := obs.Global()
	obs.SetGlobal(o)
	defer obs.SetGlobal(prev)

	p := New(pram.CRCW, Options{Workers: 2, QueueDepth: 8})
	defer p.Close()
	// One slow query holds a worker while the other serves the burst,
	// so the shards end unevenly loaded.
	if _, err := p.Submit(Query{Kind: RowMinima, A: slowMatrix(8, 8, time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.Submit(smallQuery(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	want := p.Stats().Imbalance
	if want == 0 {
		t.Fatalf("per-shard counts %v are even; the workload no longer loads the shards unevenly", p.Stats().PerWorker)
	}
	if got := o.Site("serve").Load(obs.ShardImbalance); got != want {
		t.Fatalf("shard_imbalance gauge %d before Close, want Stats().Imbalance %d", got, want)
	}
}

// TestServeChaosConformance is the serving-boundary chaos contract:
// with queue stalls and slow shards injected at a visible rate, every
// query still answers index-exact against the sequential oracle —
// injected serving faults add latency, never wrong answers — and the
// whole run is watchdogged against hangs.
func TestServeChaosConformance(t *testing.T) {
	qs := queryMix(31)
	want := sequential(t, qs)

	inj := faults.New(7, 0.2)
	p := New(pram.CRCW, Options{Workers: 3, QueueDepth: 2, Chaos: inj})
	defer p.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		got := make([]Result, len(qs))
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(qs); i += 3 {
					tk, err := p.Submit(qs[i])
					if err != nil {
						t.Errorf("submit %d under chaos: %v", i, err)
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
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos conformance run hung")
	}
	st := inj.Stats()
	if st.QueueStalls == 0 && st.SlowShards == 0 {
		t.Fatalf("chaos injector delivered no serving faults at rate 0.2: %+v", st)
	}
}
