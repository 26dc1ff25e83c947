package admit

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
	"monge/internal/mindex"
	"monge/internal/pram"
	"monge/internal/serve"
	"monge/internal/smawk"
)

// slowMatrix's entries take real wall time, so tests can hold workers
// busy long enough to drive the front into its overload regimes.
func slowMatrix(n int, delay time.Duration) marray.Matrix {
	return marray.Func{M: n, N: n, F: func(i, j int) float64 {
		time.Sleep(delay)
		return float64(i*n+j) - float64(i)*float64(j)
	}}
}

func fastQuery(seed int64) serve.Query {
	rng := rand.New(rand.NewSource(seed))
	return serve.Query{Kind: serve.RowMinima, A: marray.RandomMonge(rng, 10, 10)}
}

// waitGoroutines polls the goroutine count down to limit, as the serve
// and exec leak tests do.
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

// TestInflightCap pins the hard admission gate: with MaxInflight slots
// occupied by slow queries, the next Admit fails immediately with
// ErrOverloaded and the rejection is counted.
func TestInflightCap(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 8})
	defer p.Close()
	f := New(p, &Options{MaxInflight: 2, ShedFraction: 1})

	slow := serve.Query{Kind: serve.RowMinima, A: slowMatrix(8, 2*time.Millisecond)}
	for i := 0; i < 2; i++ {
		if _, err := f.Admit(context.Background(), Request{Query: slow, Priority: 1}); err != nil {
			t.Fatalf("admit %d under cap: %v", i, err)
		}
	}
	start := time.Now()
	_, err := f.Admit(context.Background(), Request{Query: slow, Priority: 1})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap admit err=%v, want ErrOverloaded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("over-cap rejection took %v; admission must never block", took)
	}
	st := f.Stats()
	if st.Admitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats admitted=%d rejected=%d, want 2/1", st.Admitted, st.Rejected)
	}
	p.Wait()
	f.Drain()
	if got := f.Stats().Inflight; got != 0 {
		t.Fatalf("inflight=%d after drain, want 0", got)
	}
}

// TestPriorityShedding pins graceful degradation: above the shed
// threshold, priority <= 0 work is rejected while priority > 0 work
// keeps being admitted up to the hard cap.
func TestPriorityShedding(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 1, QueueDepth: 8})
	defer p.Close()
	f := New(p, &Options{MaxInflight: 4, ShedFraction: 0.5})

	slow := serve.Query{Kind: serve.RowMinima, A: slowMatrix(8, 2*time.Millisecond)}
	// Fill to the shed threshold (2 of 4) with high-priority work.
	for i := 0; i < 2; i++ {
		if _, err := f.Admit(context.Background(), Request{Query: slow, Priority: 1}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	// Low-priority is now shed...
	if _, err := f.Admit(context.Background(), Request{Query: slow, Priority: 0}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority above threshold: err=%v, want ErrOverloaded", err)
	}
	// ...while high-priority still fits.
	if _, err := f.Admit(context.Background(), Request{Query: slow, Priority: 1}); err != nil {
		t.Fatalf("high-priority above threshold: %v", err)
	}
	st := f.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed=%d, want 1", st.Shed)
	}
	if st.Rejected != 0 {
		t.Fatalf("rejected=%d, want 0 (shed is counted separately)", st.Rejected)
	}
	p.Wait()
	f.Drain()
}

// TestTenantQuota pins per-tenant token buckets: a tenant burns its
// burst and is rejected while another tenant is unaffected.
func TestTenantQuota(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 16})
	defer p.Close()
	// 1 token/hour effectively: no refill within the test.
	f := New(p, &Options{MaxInflight: 16, TenantRate: 1.0 / 3600, TenantBurst: 2})

	for i := 0; i < 2; i++ {
		if _, err := f.Admit(context.Background(), Request{Query: fastQuery(int64(i)), Tenant: "a", Priority: 1}); err != nil {
			t.Fatalf("tenant a admit %d: %v", i, err)
		}
	}
	if _, err := f.Admit(context.Background(), Request{Query: fastQuery(9), Tenant: "a", Priority: 1}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("tenant a over quota: err=%v, want ErrOverloaded", err)
	}
	if _, err := f.Admit(context.Background(), Request{Query: fastQuery(10), Tenant: "b", Priority: 1}); err != nil {
		t.Fatalf("tenant b must be unaffected: %v", err)
	}
	p.Wait()
	f.Drain()
}

// TestAdmitDeadline pins fail-fast on a done context: typed error,
// nothing admitted, counter incremented.
func TestAdmitDeadline(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 1})
	defer p.Close()
	f := New(p, nil)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	if _, err := f.Admit(ctx, Request{Query: fastQuery(1)}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired admit err=%v, want ErrDeadlineExceeded", err)
	}
	res := f.Do(ctx, Request{Query: fastQuery(1)})
	if !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("expired Do err=%v, want ErrDeadlineExceeded", res.Err)
	}
	if st := f.Stats(); st.DeadlineExpired != 2 || st.Admitted != 0 {
		t.Fatalf("stats deadline=%d admitted=%d, want 2/0", st.DeadlineExpired, st.Admitted)
	}
}

// TestRetryRecoversOverload pins the budgeted retry policy: a Do call
// that first meets a saturated front succeeds on a later attempt once
// capacity frees up, and the retry is counted.
func TestRetryRecoversOverload(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 8})
	defer p.Close()
	f := New(p, &Options{
		MaxInflight:  1,
		ShedFraction: 1,
		RetryMax:     16,
		RetryBudget:  4,
		RetryBackoff: 500 * time.Microsecond,
	})

	// Saturate the single slot with a slow query, then Do a fast one:
	// its first attempts are rejected, a later one lands. The backoff
	// schedule (doubling from 500us, ~10 budgeted retries) spans far
	// longer than the slow query's evaluation, so a retry must land.
	if _, err := f.Admit(context.Background(), Request{Query: serve.Query{Kind: serve.RowMinima, A: slowMatrix(8, 100*time.Microsecond)}, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	res := f.Do(context.Background(), Request{Query: fastQuery(3), Priority: 1})
	if res.Err != nil {
		t.Fatalf("Do with retries failed: %v", res.Err)
	}
	if st := f.Stats(); st.Retried == 0 {
		t.Log("Do succeeded without needing a retry (slot freed first); retry path covered elsewhere")
	}
	p.Wait()
	f.Drain()
}

// TestRetryBudgetBounds pins retry amplification: with a zero budget
// earn rate and a drained bucket, overloaded Do calls fail after the
// first attempt instead of retrying forever.
func TestRetryBudgetBounds(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 1, QueueDepth: 1})
	defer p.Close()
	f := New(p, &Options{MaxInflight: 1, ShedFraction: 1, RetryMax: 4, RetryBudget: 0.001, RetryBackoff: 100 * time.Microsecond})
	// Drain the starting budget.
	f.budget.Store(0)

	if _, err := f.Admit(context.Background(), Request{Query: serve.Query{Kind: serve.RowMinima, A: slowMatrix(8, time.Millisecond)}, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := f.Do(context.Background(), Request{Query: fastQuery(4), Priority: 1})
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("budget-drained Do err=%v, want ErrOverloaded", res.Err)
	}
	// Without budget there is no backoff loop: the failure is prompt.
	if took := time.Since(start); took > time.Second {
		t.Fatalf("budget-drained Do took %v; it must fail fast", took)
	}
	if st := f.Stats(); st.Retried != 0 {
		t.Fatalf("retried=%d with an empty budget, want 0", st.Retried)
	}
	p.Wait()
	f.Drain()
}

// TestHedging pins the tail-latency hedge: a slow first attempt past
// HedgeAfter triggers one hedged second attempt, the first answer wins,
// and the result stays index-exact.
func TestHedging(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := marray.RandomMonge(rng, 24, 24)
	want := smawk.RowMinima(a)
	// Implicit backing with a small per-entry delay: slow enough to trip
	// the hedge threshold, fast enough for the test.
	slow := marray.Func{M: 24, N: 24, F: func(i, j int) float64 {
		time.Sleep(20 * time.Microsecond)
		return a.At(i, j)
	}}

	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 8})
	defer p.Close()
	f := New(p, &Options{MaxInflight: 8, HedgeAfter: time.Millisecond})

	res := f.Do(context.Background(), Request{Query: serve.Query{Kind: serve.RowMinima, A: slow}, Priority: 1})
	if res.Err != nil {
		t.Fatalf("hedged Do failed: %v", res.Err)
	}
	for r := range want {
		if res.Idx[r] != want[r] {
			t.Fatalf("hedged answer row %d: %d, want %d", r, res.Idx[r], want[r])
		}
	}
	if st := f.Stats(); st.Hedged == 0 {
		t.Fatalf("hedged=%d, want >= 1 (first attempt slower than HedgeAfter)", st.Hedged)
	}
	p.Wait()
	f.Drain()
}

// TestTicketDropRecovery pins the chaos transport fault: with injected
// ticket drops at a high rate, Do transparently recomputes and still
// returns the index-exact answer, counting the redeliveries.
func TestTicketDropRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := marray.RandomMonge(rng, 16, 16)
	want := smawk.RowMinima(a)

	inj := faults.New(3, 0.9)
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 8, Chaos: inj})
	defer p.Close()
	f := New(p, &Options{MaxInflight: 8})

	sawRetry := false
	for i := 0; i < 16; i++ {
		res := f.Do(context.Background(), Request{Query: serve.Query{Kind: serve.RowMinima, A: a}, Priority: 1})
		if res.Err != nil {
			t.Fatalf("Do %d under ticket drops: %v", i, res.Err)
		}
		for r := range want {
			if res.Idx[r] != want[r] {
				t.Fatalf("Do %d row %d: %d, want %d", i, r, res.Idx[r], want[r])
			}
		}
	}
	if f.Stats().Retried > 0 {
		sawRetry = true
	}
	if !sawRetry {
		t.Fatalf("rate-0.9 ticket drops produced no redeliveries: %+v", inj.Stats())
	}
	if inj.Stats().TicketDrops == 0 {
		t.Fatalf("injector recorded no ticket drops: %+v", inj.Stats())
	}
	p.Wait()
	f.Drain()
}

// TestChaosConformance is the front's end-to-end chaos contract: queue
// stalls, slow shards, and ticket drops all injected at once, many
// concurrent Do callers with mixed priorities, tenants, and deadlines —
// every call either returns an index-exact answer or a typed error, no
// hangs (watchdog), no goroutine leaks after drain.
func TestChaosConformance(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(17))
	type job struct {
		q   serve.Query
		idx []int
	}
	var jobs []job
	for i := 0; i < 6; i++ {
		a := marray.RandomMonge(rng, 12+i, 15)
		jobs = append(jobs, job{q: serve.Query{Kind: serve.RowMinima, A: a}, idx: smawk.RowMinima(a)})
	}
	s := marray.RandomStaircaseMonge(rng, 14, 14)
	jobs = append(jobs, job{q: serve.Query{Kind: serve.StaircaseRowMinima, A: s}, idx: smawk.StaircaseRowMinima(s)})

	inj := faults.New(7, 0.25)
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 2, Chaos: inj})
	f := New(p, &Options{
		MaxInflight:  6,
		ShedFraction: 0.5,
		RetryMax:     3,
		RetryBudget:  1,
		RetryBackoff: 200 * time.Microsecond,
		HedgeAfter:   5 * time.Millisecond,
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					j := jobs[(g+i)%len(jobs)]
					ctx := context.Background()
					var cancel context.CancelFunc
					if i%4 == 3 {
						// A quarter of the load carries tight deadlines.
						ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%3)*time.Millisecond)
					}
					res := f.Do(ctx, Request{Query: j.q, Tenant: string(rune('a' + g%3)), Priority: g % 2})
					if cancel != nil {
						cancel()
					}
					if res.Err != nil {
						if !errors.Is(res.Err, ErrOverloaded) &&
							!errors.Is(res.Err, ErrDeadlineExceeded) &&
							!errors.Is(res.Err, merr.ErrCanceled) {
							t.Errorf("goroutine %d call %d: untyped error %v", g, i, res.Err)
						}
						continue
					}
					for r := range j.idx {
						if res.Idx[r] != j.idx[r] {
							t.Errorf("goroutine %d call %d row %d: %d, want %d (silent corruption under chaos)",
								g, i, r, res.Idx[r], j.idx[r])
							break
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos conformance hung: admitted work neither completed nor failed typed")
	}
	p.Close()
	f.Drain()
	st := f.Stats()
	if st.Inflight != 0 {
		t.Fatalf("inflight=%d after drain, want 0", st.Inflight)
	}
	if st.Admitted == 0 {
		t.Fatal("chaos run admitted nothing; the workload no longer exercises the front")
	}
	waitGoroutines(t, base)
}

// TestFrontDrainLeak pins the watcher lifecycle: after the pool closes
// and Drain returns, no front goroutine survives — including watchers
// of tickets nobody awaited.
func TestFrontDrainLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 32})
	f := New(p, &Options{MaxInflight: 32})
	for i := 0; i < 12; i++ {
		// Fire-and-forget: nobody reads these tickets.
		if _, err := f.Admit(context.Background(), Request{Query: fastQuery(int64(i)), Priority: 1}); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	p.Close()
	f.Drain()
	waitGoroutines(t, base)
	if got := f.Stats().Inflight; got != 0 {
		t.Fatalf("inflight=%d after drain, want 0", got)
	}
}

// TestDoAgainstOracle is the front's differential conformance: a mix of
// all three kinds through Do (no chaos) answers index-exact with a
// sequential batch.Driver.
func TestDoAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := batch.New(pram.CRCW)
	defer d.Close()

	p := serve.New(pram.CRCW, serve.Options{Workers: 3})
	defer p.Close()
	f := New(p, &Options{MaxInflight: 32})

	for i := 0; i < 8; i++ {
		a := marray.RandomMonge(rng, 10+i, 13)
		want := d.RowMinima(a)
		res := f.Do(context.Background(), Request{Query: serve.Query{Kind: serve.RowMinima, A: a}, Priority: 1})
		if res.Err != nil {
			t.Fatalf("Do %d: %v", i, res.Err)
		}
		for r := range want {
			if res.Idx[r] != want[r] {
				t.Fatalf("Do %d row %d: %d, want %d", i, r, res.Idx[r], want[r])
			}
		}
	}
	c := marray.RandomComposite(rng, 5, 6, 7)
	wantJ, wantV := d.TubeMaxima(c)
	res := f.Do(context.Background(), Request{Query: serve.Query{Kind: serve.TubeMaxima, C: c}, Priority: 1})
	if res.Err != nil {
		t.Fatalf("tube Do: %v", res.Err)
	}
	for x := range wantJ {
		for k := range wantJ[x] {
			if res.TubeJ[x][k] != wantJ[x][k] || res.TubeV[x][k] != wantV[x][k] {
				t.Fatalf("tube (%d,%d): j=%d v=%g, want j=%d v=%g",
					x, k, res.TubeJ[x][k], res.TubeV[x][k], wantJ[x][k], wantV[x][k])
			}
		}
	}
	f.Drain()
}

// TestOpenLoopLowLoadAdmits is the front's low-load admission gate.
// One worker serves a sleep-dominated query whose service time is fixed
// (~4.4 ms, race detector or not), so the load is known: arrivals are
// pinned to the clock at 0.5x and 2x of the calibrated closed-loop rate
// whether or not earlier requests have finished. At 0.5x the default
// fail-fast front must admit essentially everything, and every answer
// must be index-exact; at 2x it must shed, which shows the pacing
// really loads the pool. The pool's machine and serving-boundary
// injectors are pinned off, so FAULT_RATE cannot move the result.
func TestOpenLoopLowLoadAdmits(t *testing.T) {
	off := faults.New(0, 0)
	p := serve.New(pram.CRCW, serve.Options{Workers: 1, Faults: off, Chaos: off})
	defer p.Close()
	f := New(p, &serve.Admission{})
	a := slowMatrix(2, time.Millisecond)
	q := serve.Query{Kind: serve.RowMinima, A: a}
	want := smawk.RowMinima(a)

	const calls = 20
	start := time.Now()
	for i := 0; i < calls; i++ {
		if res := f.Do(context.Background(), Request{Query: q}); res.Err != nil {
			t.Fatalf("calibration call %d: %v", i, res.Err)
		}
	}
	service := time.Since(start) / calls

	// rung fires n arrivals, the i-th at start + i·interval, and returns
	// the share rejected with ErrOverloaded.
	rung := func(mult float64) float64 {
		const n = 200
		interval := time.Duration(float64(service) / mult)
		var rejected atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res := f.Do(context.Background(), Request{Query: q})
				switch {
				case res.Err == nil:
					for r := range want {
						if res.Idx[r] != want[r] {
							t.Errorf("%gx arrival %d row %d: %d, want %d", mult, i, r, res.Idx[r], want[r])
							return
						}
					}
				case errors.Is(res.Err, ErrOverloaded):
					rejected.Add(1)
				case errors.Is(res.Err, ErrDeadlineExceeded), errors.Is(res.Err, merr.ErrCanceled):
				default:
					t.Errorf("%gx arrival %d: untyped error %v", mult, i, res.Err)
				}
			}(i)
		}
		wg.Wait()
		rate := float64(rejected.Load()) / n
		t.Logf("%gx of %.0f qps (service %v): %.1f%% rejected", mult, float64(time.Second)/float64(service), service, 100*rate)
		return rate
	}
	if low := rung(0.5); low > 0.05 {
		t.Errorf("0.5x rung rejected %.1f%%, want <= 5%%: the front rejects under low load", 100*low)
	}
	if sat := rung(2); sat < 1.0/3 {
		t.Errorf("2x rung rejected %.1f%%, want >= 33.3%%: the arrivals did not load the pool", 100*sat)
	}
	p.Wait()
	f.Drain()
}

// TestIndexAdmissionAccounting pins the admission accounting of the
// index kinds, which the pool answers on the submitting goroutine: they
// still meet the inflight cap and the tenant bucket, their slot is
// released before Do returns with no watcher goroutine left behind, and
// chaos ticket drops still redeliver them index-exact.
func TestIndexAdmissionAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := marray.RandomMongeInt(rng, 40, 36, 4)
	ix := mindex.Build(a, mindex.Opts{})
	submax := func(k int) (serve.Query, mindex.Pos) {
		r1, c1 := k%40, (3*k)%36
		r2, c2 := r1+(7*k)%(40-r1), c1+(5*k)%(36-c1)
		return serve.Query{Kind: serve.SubmatrixMax, Index: ix, R1: r1, R2: r2, C1: c1, C2: c2},
			mindex.SubmatrixMaxBrute(a, r1, r2, c1, c2)
	}
	q0, want0 := submax(0)

	t.Run("inflight-cap", func(t *testing.T) {
		p := serve.New(pram.CRCW, serve.Options{Workers: 1, QueueDepth: 4})
		defer p.Close()
		f := New(p, &Options{MaxInflight: 2, ShedFraction: 1})
		slow := serve.Query{Kind: serve.RowMinima, A: slowMatrix(8, 2*time.Millisecond)}
		for i := 0; i < 2; i++ {
			if _, err := f.Admit(context.Background(), Request{Query: slow, Priority: 1}); err != nil {
				t.Fatalf("admit slow %d: %v", i, err)
			}
		}
		if res := f.Do(context.Background(), Request{Query: q0, Priority: 1}); !errors.Is(res.Err, ErrOverloaded) {
			t.Fatalf("index Do at the inflight cap: err=%v, want ErrOverloaded", res.Err)
		}
		p.Wait()
		f.Drain()
	})

	t.Run("tenant-bucket", func(t *testing.T) {
		p := serve.New(pram.CRCW, serve.Options{Workers: 1})
		defer p.Close()
		f := New(p, &Options{TenantRate: 1, TenantBurst: 1})
		if res := f.Do(context.Background(), Request{Query: q0, Tenant: "a", Priority: 1}); res.Err != nil || res.Pos != want0 {
			t.Fatalf("first index Do: %+v, want %+v", res, want0)
		}
		if res := f.Do(context.Background(), Request{Query: q0, Tenant: "a", Priority: 1}); !errors.Is(res.Err, ErrOverloaded) {
			t.Fatalf("second immediate index Do: err=%v, want ErrOverloaded", res.Err)
		}
	})

	t.Run("tenant-bucket-redelivery", func(t *testing.T) {
		// Under both seeds the first Do's answer is dropped once: the
		// redelivery must not spend the tenant's only token again.
		for _, seed := range []int64{1, 11} {
			inj := faults.New(seed, 0.5)
			p := serve.New(pram.CRCW, serve.Options{Workers: 1, Chaos: inj})
			f := New(p, &Options{TenantRate: 1, TenantBurst: 1})
			if res := f.Do(context.Background(), Request{Query: q0, Tenant: "a", Priority: 1}); res.Err != nil || res.Pos != want0 {
				t.Fatalf("seed %d: first index Do: %+v, want %+v", seed, res, want0)
			}
			if inj.Stats().TicketDrops == 0 {
				t.Fatalf("seed %d: the first answer was not dropped; the case redelivers nothing", seed)
			}
			if res := f.Do(context.Background(), Request{Query: q0, Tenant: "a", Priority: 1}); !errors.Is(res.Err, ErrOverloaded) {
				t.Fatalf("seed %d: second immediate index Do: err=%v, want ErrOverloaded", seed, res.Err)
			}
			p.Close()
		}
	})

	t.Run("no-watchers", func(t *testing.T) {
		p := serve.New(pram.CRCW, serve.Options{Workers: 2})
		defer p.Close()
		f := New(p, nil)
		base := runtime.NumGoroutine()
		for k := 0; k < 1000; k++ {
			q, want := submax(k)
			if res := f.Do(context.Background(), Request{Query: q}); res.Err != nil || res.Pos != want {
				t.Fatalf("Do %d: %+v, want %+v", k, res, want)
			}
		}
		if n := f.Stats().Inflight; n != 0 {
			t.Fatalf("inflight=%d after 1000 index Do calls without Drain, want 0", n)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after 1000 index Do calls, %d before", n, base)
		}
	})

	t.Run("ticket-drops", func(t *testing.T) {
		inj := faults.New(5, 0.5)
		p := serve.New(pram.CRCW, serve.Options{Workers: 2, Chaos: inj})
		defer p.Close()
		f := New(p, nil)
		for k := 0; k < 64; k++ {
			q, want := submax(k)
			if res := f.Do(context.Background(), Request{Query: q}); res.Err != nil || res.Pos != want {
				t.Fatalf("Do %d under ticket drops: %+v, want %+v", k, res, want)
			}
		}
		if inj.Stats().TicketDrops == 0 || f.Stats().Retried == 0 {
			t.Fatalf("rate-0.5 chaos redelivered nothing: injector %+v, front %+v", inj.Stats(), f.Stats())
		}
	})
}
