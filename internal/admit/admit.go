// Package admit is the load-discipline front of the serving layer: it
// wraps a serve.Pool in admission control, per-tenant quotas, priority
// shedding, per-query deadlines, and a retry/hedging policy, so that an
// overloaded pool degrades into fast typed rejections instead of
// convoys of blocked callers.
//
// # Admission
//
// Every request passes four gates before it reaches the pool's queue:
// the caller's context must not already be done (ErrDeadlineExceeded /
// merr.ErrCanceled), the front's inflight cap must have room
// (ErrOverloaded), low-priority work is shed early when inflight load
// crosses the shed threshold (ErrOverloaded, counted separately as
// "shed" — capacity above the threshold is reserved for priority > 0),
// and the tenant's token bucket must hold a token (ErrOverloaded).
// The enqueue itself is the pool's fail-fast TrySubmit: a full queue is
// an immediate ErrOverloaded, never a block. Admission therefore never
// blocks past the caller's context — in fact it never blocks at all.
// The index kinds pass the same gates; the pool then answers them on
// the caller, so their ticket comes back resolved and the front
// releases the inflight slot at once instead of watching the ticket.
//
// # Retries and hedging
//
// Do runs the full request lifecycle. Failed attempts with a retryable
// condition (overload) are retried up to Options.RetryMax attempts with
// exponential backoff (the same doubling schedule the machine fault
// layer charges via faults.BackoffTime), but only while the retry
// budget holds: each arriving request earns Options.RetryBudget tokens
// and each retry spends one, bounding retry amplification under
// sustained overload. With Options.HedgeAfter set, a request that has
// not resolved within the threshold issues one hedged second attempt
// and takes whichever answer lands first — index-exact by construction,
// because queries are pure.
//
// # Chaos
//
// The front consults the pool's serving-boundary fault injector
// (serve.Options.Chaos, defaulting to the process-wide faults.Global):
// injected "ticket drops" simulate a result lost between worker and
// caller, which the front recovers by resubmitting. Together with the
// pool's injected queue stalls and slow shards, this makes the entire
// socket-to-kernel path chaos-testable: the conformance suite proves
// that under injection every admitted query still completes index-exact
// or fails with a typed error — no hangs, no silent zeros.
package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monge/internal/faults"
	"monge/internal/obs"
	"monge/internal/serve"
)

// Re-exported sentinels, so callers holding only an admit handle can
// errors.Is against the serving error vocabulary.
var (
	ErrOverloaded       = serve.ErrOverloaded
	ErrDeadlineExceeded = serve.ErrDeadlineExceeded
)

// Options is the load-discipline policy; it aliases serve.Admission so
// the whole serving stack is configured through one options struct
// (monge.PoolOptions.Admission).
type Options = serve.Admission

// Request is one admitted unit of work: the query plus its admission
// metadata. Tenant keys the per-tenant token bucket (the empty string
// is a valid shared tenant). Priority orders shedding under load:
// priority <= 0 work is shed first when the front approaches its
// inflight cap, priority > 0 work keeps being admitted until the hard
// cap.
type Request struct {
	Query    serve.Query
	Tenant   string
	Priority int
}

// Stats is a point-in-time view of the front's admission counters (the
// same counts are mirrored into the obs "serve" site when an observer
// is installed).
type Stats struct {
	Inflight        int64 // admitted queries not yet resolved
	Admitted        int64
	Rejected        int64 // hard rejections: inflight cap, quota, full queue
	Shed            int64 // low-priority rejections below the hard cap
	Hedged          int64 // hedged second attempts issued
	Retried         int64 // resubmissions: policy retries + recovered ticket drops
	DeadlineExpired int64 // requests rejected at admission with a done context
}

// tokenScale is the fixed-point scale of the retry budget (one retry
// token = tokenScale units in the atomic accumulator).
const tokenScale = 1000

// Front wraps a serve.Pool in the admission policy. Create with New;
// a Front is safe for concurrent use by any number of goroutines.
type Front struct {
	pool *serve.Pool

	maxInflight int64
	shedAt      int64
	rate        float64
	burst       float64
	retryMax    int
	backoff     time.Duration
	hedgeAfter  time.Duration
	earn        int64 // budget tokens earned per request, scaled
	budgetCap   int64 // scaled

	inflight atomic.Int64
	budget   atomic.Int64
	seq      atomic.Int64 // chaos unit ids (ticket drops)
	watchers sync.WaitGroup

	mu      sync.Mutex
	tenants map[string]*bucket

	// local holds the front's own admission counts (Stats); obsC mirrors
	// them into the observer's "serve" site when one is installed.
	local obs.Counters
	obsC  *obs.Counters
}

// bucket is one tenant's token bucket; guarded by Front.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// New returns a Front applying opt on top of pool. A nil opt is the
// zero policy: fail-fast admission with the default inflight cap, no
// quotas, no retries, no hedging.
func New(pool *serve.Pool, opt *Options) *Front {
	var o Options
	if opt != nil {
		o = *opt
	}
	f := &Front{
		pool:       pool,
		rate:       o.TenantRate,
		burst:      float64(o.TenantBurst),
		retryMax:   o.RetryMax,
		backoff:    o.RetryBackoff,
		hedgeAfter: o.HedgeAfter,
		tenants:    make(map[string]*bucket),
	}
	f.maxInflight = int64(o.MaxInflight)
	if f.maxInflight <= 0 {
		f.maxInflight = int64(4 * pool.Workers())
	}
	shed := o.ShedFraction
	if shed <= 0 || shed > 1 {
		shed = 0.75
	}
	f.shedAt = int64(shed * float64(f.maxInflight))
	if f.shedAt < 1 {
		f.shedAt = 1
	}
	if f.rate > 0 && f.burst < 1 {
		f.burst = 1
	}
	if f.retryMax < 1 {
		f.retryMax = 1
	}
	if f.backoff <= 0 {
		f.backoff = time.Millisecond
	}
	budget := o.RetryBudget
	if budget <= 0 {
		budget = 0.1
	}
	f.earn = int64(budget * tokenScale)
	f.budgetCap = 10 * tokenScale // at most 10 banked retries
	f.budget.Store(f.budgetCap)   // start full so cold-start faults can retry
	f.obsC = obs.Global().Site("serve")
	return f
}

// Pool returns the wrapped serving pool.
func (f *Front) Pool() *serve.Pool { return f.pool }

// bump increments admission metric id locally and, when an observer is
// installed, in its "serve" site.
func (f *Front) bump(id obs.ID) {
	f.local.Add(id, 1)
	f.obsC.Add(id, 1)
}

// Admit passes req through the admission gates and enqueues it,
// returning the query's ticket. It never blocks: every rejection is an
// immediate typed error (ErrOverloaded, ErrDeadlineExceeded,
// merr.ErrCanceled, serve.ErrClosed). The inflight slot is released
// when the ticket resolves, whether or not the caller awaits it: by a
// watcher goroutine for a queued query, before Admit returns for a
// ticket that is already resolved.
func (f *Front) Admit(ctx context.Context, req Request) (*serve.Ticket, error) {
	paid := false
	return f.admit(ctx, req, &paid)
}

// admit is Admit with the tenant debit made once per request: the
// tenant bucket is skipped when *paid is set, and a successful debit
// sets it. Do threads one flag through a request's retries, chaos
// redeliveries and hedge, so the tenant pays for the request once.
func (f *Front) admit(ctx context.Context, req Request, paid *bool) (*serve.Ticket, error) {
	if ctx.Err() != nil {
		f.bump(obs.DeadlineExpired)
		return nil, serve.ContextError(ctx)
	}
	n := f.inflight.Add(1)
	if n > f.maxInflight {
		f.inflight.Add(-1)
		f.bump(obs.Rejected)
		return nil, fmt.Errorf("%w: inflight cap %d reached", ErrOverloaded, f.maxInflight)
	}
	if req.Priority <= 0 && n > f.shedAt {
		f.inflight.Add(-1)
		f.bump(obs.Shed)
		return nil, fmt.Errorf("%w: low-priority work shed at load %d/%d", ErrOverloaded, n, f.maxInflight)
	}
	if f.rate > 0 && !*paid {
		if !f.takeTenantToken(req.Tenant) {
			f.inflight.Add(-1)
			f.bump(obs.Rejected)
			return nil, fmt.Errorf("%w: tenant %q quota exhausted", ErrOverloaded, req.Tenant)
		}
		*paid = true
	}
	tk, err := f.pool.TrySubmit(ctx, req.Query)
	if err != nil {
		f.inflight.Add(-1)
		if errors.Is(err, ErrOverloaded) {
			f.bump(obs.Rejected)
		}
		return nil, err
	}
	f.bump(obs.Admitted)
	select {
	case <-tk.Done():
		// Already resolved (the index kinds are answered on the
		// submitting goroutine): release the slot here, no watcher.
		f.inflight.Add(-1)
		return tk, nil
	default:
	}
	f.watchers.Add(1)
	go func() {
		defer f.watchers.Done()
		<-tk.Done()
		f.inflight.Add(-1)
	}()
	return tk, nil
}

// takeTenantToken refills and debits tenant's bucket.
func (f *Front) takeTenantToken(tenant string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	b := f.tenants[tenant]
	if b == nil {
		b = &bucket{tokens: f.burst, last: now}
		f.tenants[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * f.rate
	if b.tokens > f.burst {
		b.tokens = f.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// takeRetryToken spends one budgeted retry token if the budget holds.
func (f *Front) takeRetryToken() bool {
	for {
		cur := f.budget.Load()
		if cur < tokenScale {
			return false
		}
		if f.budget.CompareAndSwap(cur, cur-tokenScale) {
			return true
		}
	}
}

// earnBudget credits the per-request retry allowance, capped.
func (f *Front) earnBudget() {
	if f.budget.Add(f.earn) > f.budgetCap {
		f.budget.Store(f.budgetCap)
	}
}

// retryable reports whether err is worth a budgeted retry: overload is
// (capacity frees up), deadlines, cancellations, and structural errors
// are not.
func retryable(err error) bool { return errors.Is(err, ErrOverloaded) }

// backoffSleep waits the attempt-th backoff interval (doubling from the
// base, capped at 1024x — the schedule faults.BackoffTime charges the
// simulated machines), or less if ctx is done first.
func (f *Front) backoffSleep(ctx context.Context, attempt int) {
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 10 {
		shift = 10
	}
	t := time.NewTimer(f.backoff << uint(shift))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Do runs the full lifecycle of one request: admission, await, policy
// retries under the budget, hedging past the latency threshold, and
// chaos ticket-drop recovery. The returned Result either carries an
// index-exact answer or a typed error (ErrOverloaded,
// ErrDeadlineExceeded, merr.ErrCanceled, serve.ErrClosed, or a
// structural error thrown by the query itself); Do never blocks past
// ctx.
func (f *Front) Do(ctx context.Context, req Request) serve.Result {
	f.earnBudget()
	unit := f.seq.Add(1)
	attempt := 0    // policy retries consumed
	redelivery := 0 // chaos ticket-drop redeliveries (bounded by faults.MaxAttempts)
	paid := false   // the tenant bucket was debited for this request
	chaos := f.pool.Chaos()
	for {
		tk, err := f.admit(ctx, req, &paid)
		if err != nil {
			if retryable(err) && attempt+1 < f.retryMax && ctx.Err() == nil && f.takeRetryToken() {
				attempt++
				f.bump(obs.Retried)
				f.backoffSleep(ctx, attempt)
				continue
			}
			return serve.Result{Err: err}
		}
		res := f.await(ctx, req, tk, &paid)
		if res.Err == nil && chaos.Enabled() && chaos.TicketDrop(unit, redelivery) {
			// The answer was computed but lost on the way back — the
			// injected transport fault. Queries are pure: resubmit and
			// recompute; the redelivered answer is identical.
			redelivery++
			f.bump(obs.Retried)
			continue
		}
		if res.Err != nil && retryable(res.Err) && attempt+1 < f.retryMax && ctx.Err() == nil && f.takeRetryToken() {
			attempt++
			f.bump(obs.Retried)
			f.backoffSleep(ctx, attempt)
			continue
		}
		return res
	}
}

// await blocks until tk resolves, ctx is done, or the hedging threshold
// passes — in which case one hedged second attempt races the first and
// the earlier answer wins. The hedge is admitted under the request's
// paid flag, so it does not debit the tenant again.
func (f *Front) await(ctx context.Context, req Request, tk *serve.Ticket, paid *bool) serve.Result {
	select {
	case <-tk.Done():
		return tk.Result()
	default:
	}
	if f.hedgeAfter <= 0 {
		select {
		case <-tk.Done():
			return tk.Result()
		case <-ctx.Done():
			return serve.Result{Err: serve.ContextError(ctx)}
		}
	}
	timer := time.NewTimer(f.hedgeAfter)
	defer timer.Stop()
	select {
	case <-tk.Done():
		return tk.Result()
	case <-ctx.Done():
		return serve.Result{Err: serve.ContextError(ctx)}
	case <-timer.C:
	}
	// Past the latency threshold: hedge. Failure to admit the hedge
	// (no capacity) is not an error — the first attempt keeps running.
	tk2, err := f.admit(ctx, req, paid)
	if err != nil {
		select {
		case <-tk.Done():
			return tk.Result()
		case <-ctx.Done():
			return serve.Result{Err: serve.ContextError(ctx)}
		}
	}
	f.bump(obs.Hedged)
	select {
	case <-tk.Done():
		return tk.Result()
	case <-tk2.Done():
		return tk2.Result()
	case <-ctx.Done():
		return serve.Result{Err: serve.ContextError(ctx)}
	}
}

// Stats snapshots the admission counters.
func (f *Front) Stats() Stats {
	return Stats{
		Inflight:        f.inflight.Load(),
		Admitted:        f.local.Load(obs.Admitted),
		Rejected:        f.local.Load(obs.Rejected),
		Shed:            f.local.Load(obs.Shed),
		Hedged:          f.local.Load(obs.Hedged),
		Retried:         f.local.Load(obs.Retried),
		DeadlineExpired: f.local.Load(obs.DeadlineExpired),
	}
}

// Drain blocks until every admitted query's inflight slot has been
// released (all ticket watchers exited). Call after the pool has
// drained (pool.Wait or pool.Close) to guarantee no front goroutine
// outlives the serving stack.
func (f *Front) Drain() { f.watchers.Wait() }

// mustNotBlock is a compile-time reminder that faults.MaxAttempts
// bounds chaos redeliveries; referenced here so the contract is
// documented next to the import.
var _ = faults.MaxAttempts
