// Package serve turns the repository's batched query drivers into a
// goroutine-safe serving layer. A batch.Driver reaches near-zero allocs
// per query but is single-threaded by design: its machines share scratch
// arenas. A Pool gets concurrency the only way that preserves that
// property — by sharding. It owns W worker goroutines, each with a
// private batch.Driver (machines keyed per shape class, exactly as a
// lone driver keys them), and feeds them from one submission queue.
// Workers evaluate each query's input directly: no production path
// memoizes entries (the marray tile cache stays only as a measured
// alternative), because the searching algorithms on native goroutines
// touch most entries once. Queries are answered index-exact with the
// sequential facade: sharding changes who computes an answer, never the
// answer.
//
// Each worker's machines run with a private one-worker pool
// (batch.Driver.SetMachineWorkers(1)), so a W-worker Pool is W
// independent CPU-bound goroutines — supersteps execute inline on the
// worker, and workers never contend for the shared exec pool's cores.
// That is the right parallelism decomposition for a stream of many
// small queries: across queries, not within one.
//
// # Screening
//
// Query.Screen is the one place that decides which sampled structural
// check each kind needs. The public facade and the HTTP front end call
// it on the submitting goroutine before anything is enqueued; the Pool
// itself does not, so its Submit family costs no screen.
//
// # Load discipline
//
// The submission boundary is deadline- and overload-aware. SubmitCtx
// attaches a caller context to the query: a submitter blocked on a full
// queue unblocks the moment its context is done, and a query whose
// context has expired by the time a worker picks it up is dropped
// before evaluation, its ticket resolving with ErrDeadlineExceeded (or
// merr.ErrCanceled for plain cancellation). TrySubmit never blocks at
// all — a full queue is ErrOverloaded, the fail-fast primitive the
// admission front (internal/admit) builds its bounded-queue policy on.
// Close transitions the pool through an observable draining state
// (Stats.State) before stopping the workers.
//
// # Robustness plumbing
//
// A pool context cancels in-flight and queued queries (their tickets
// resolve with merr.ErrCanceled), and drivers inherit the process-wide
// fault injector unless Options.Faults overrides it. The serving
// boundary itself is chaos-testable: Options.Chaos (defaulting to the
// same process-wide injector) injects deterministic queue stalls on the
// submit path and slow-shard latency on the dispatch path, and the
// admission front layers ticket drops on top. Every query failure
// travels on its own ticket; one bad query cannot poison the pool.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"monge/internal/batch"
	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/mindex"
	"monge/internal/minplus"
	"monge/internal/obs"
	"monge/internal/pram"
)

// ErrClosed reports a Submit after Close; test with errors.Is.
var ErrClosed = errors.New("monge: driver pool is closed")

// ErrUnknownKind reports a Query whose Kind is none of the defined
// problems; the ticket resolves with it.
var ErrUnknownKind = errors.New("monge: unknown query kind")

// ErrOverloaded reports a submission rejected by load discipline: a
// full queue on the fail-fast path, the admission front's inflight cap
// or a tenant quota, or low-priority work shed under load. Rejections
// are immediate — an overloaded pool never blocks the caller — and
// carry no partial answer. Test with errors.Is.
var ErrOverloaded = errors.New("monge: serving pool overloaded")

// ErrDeadlineExceeded reports a query whose context deadline expired
// before it produced an answer: at submission, while queued (the worker
// drops it before evaluation), or mid-evaluation (the machine aborts at
// its next superstep). Errors carrying it also match
// context.DeadlineExceeded via errors.Is.
var ErrDeadlineExceeded = errors.New("monge: query deadline exceeded")

// Kind selects the problem a Query asks.
type Kind int

const (
	// RowMinima asks for the leftmost row minima of the Monge array A.
	RowMinima Kind = iota
	// StaircaseRowMinima asks for the leftmost finite row minima of the
	// staircase-Monge array A.
	StaircaseRowMinima
	// TubeMaxima asks for the per-(i,k) tube maxima of the composite C.
	TubeMaxima
	// SubmatrixMax asks a prebuilt Index for the maximum of the
	// submatrix Rows R1..R2 × Cols C1..C2 (inclusive).
	SubmatrixMax
	// RangeRowMinima asks a prebuilt Index for the leftmost row-minima
	// columns of rows R1..R2 (inclusive).
	RangeRowMinima
	// MinPlus asks for the Monge (min,+) product A ⊗ B as a run-sparse
	// minplus.Product.
	MinPlus
	// MLinkPath asks for the cheapest exactly-M-link path 0 -> N under
	// the Monge link weight W.
	MLinkPath
)

// Query is one unit of work for a Pool: a problem kind plus its input
// (A for the row problems, C for the tube problem, Index plus the
// R1/R2/C1/C2 ranges for the index-backed point queries, A and B for
// the (min,+) product, N/W/M for the M-link path).
type Query struct {
	Kind  Kind
	A     marray.Matrix
	B     marray.Matrix // second (min,+) factor
	C     marray.Composite
	Index *mindex.Index
	W     minplus.Weight // M-link link weight over nodes 0..N
	N     int            // M-link node span
	M     int            // M-link link count
	R1    int
	R2    int
	C1    int
	C2    int
}

// Result is one query's answer. Idx is set for the row problems,
// RangeRowMinima, and MLinkPath (the node sequence; nil when no path
// exists); TubeJ and TubeV for the tube problem; Pos for SubmatrixMax;
// Prod for MinPlus; Cost for MLinkPath. Err carries any typed
// condition the simulation threw (merr.ErrCanceled,
// ErrDeadlineExceeded, fault-path errors, ...); the answer fields are
// zero when Err is non-nil.
type Result struct {
	Idx   []int
	TubeJ [][]int
	TubeV [][]float64
	Pos   mindex.Pos
	Prod  *minplus.Product
	Cost  float64
	Err   error
}

// Ticket is the handle Submit returns: a future for one query's Result.
type Ticket struct {
	q    Query
	ctx  context.Context // caller context from SubmitCtx; nil for background
	enq  time.Time       // enqueue instant, recorded only when obs is on
	done chan struct{}
	res  Result
}

// Done returns a channel closed when the result is ready, for select
// loops; Result is the blocking accessor.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Result blocks until the query has been answered and returns its
// result. It is safe to call from any goroutine, any number of times.
func (t *Ticket) Result() Result {
	<-t.done
	return t.res
}

// errTicket returns an already-resolved ticket carrying err, so stream
// consumers see submission failures in-band.
func errTicket(err error) *Ticket {
	t := &Ticket{done: make(chan struct{}), res: Result{Err: err}}
	close(t.done)
	return t
}

// Options configures a Pool. The zero value is usable: GOMAXPROCS
// workers, background context, inherited fault injector.
type Options struct {
	// Workers is the shard count; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is the submit-queue buffer — the number of queries that
	// can wait beyond the ones being served — and therefore the bound
	// TrySubmit's fail-fast admission enforces. <= 0 means one slot per
	// worker, the pre-admission default.
	QueueDepth int
	// Context cancels the pool's queries: in-flight queries abort at
	// their next superstep and resolve with merr.ErrCanceled.
	Context context.Context
	// Faults overrides the fault injector attached to the workers'
	// machines. Nil keeps the default passthrough: machines attach the
	// process-wide faults.Global injector, exactly as facade calls do.
	Faults *faults.Injector
	// Chaos overrides the fault injector of the serving boundary itself:
	// deterministic queue stalls before enqueue and slow-shard latency
	// before service (and, in the admission front, ticket drops). Nil
	// keeps the process-wide faults.Global passthrough, which is how the
	// CI chaos job injects the whole suite via FAULT_RATE. Injected
	// serving faults never change an answer — they only add latency the
	// retry/hedging layer must absorb.
	Chaos *faults.Injector
	// Backend selects the worker drivers' execution engine: the zero
	// value batch.BackendPRAM serves on the simulated machines,
	// batch.BackendNative on the direct goroutine kernels of
	// internal/native. Answers are index-exact either way; a native pool
	// trades the simulator's charged-cost observability for raw speed,
	// and its drivers see no injected machine faults.
	Backend batch.Backend
	// Admission, when non-nil, asks the public facade (monge.DriverPool)
	// to wrap the pool in the load-discipline front of internal/admit —
	// inflight caps, per-tenant quotas, priority shedding, retries and
	// hedging. The Pool itself does not interpret it (admit builds on
	// the Pool, not inside it); it lives here so one options struct
	// configures the whole serving stack.
	Admission *Admission
}

// Admission is the load-discipline policy of the admission front
// (internal/admit). The zero value of every field selects a sane
// default, so &Admission{} is a usable fail-fast configuration with no
// quotas, no retries, and no hedging.
type Admission struct {
	// MaxInflight caps admitted-but-unresolved queries across all
	// tenants; admissions beyond it are rejected with ErrOverloaded.
	// <= 0 means 4 slots per pool worker.
	MaxInflight int
	// ShedFraction is the fraction of MaxInflight above which priority
	// <= 0 work is shed (rejected with ErrOverloaded while capacity is
	// reserved for higher-priority queries). Outside (0, 1] it defaults
	// to 0.75.
	ShedFraction float64
	// TenantRate and TenantBurst configure the per-tenant token bucket:
	// each tenant string earns TenantRate admissions per second up to a
	// bucket of TenantBurst. TenantRate <= 0 disables quotas.
	TenantRate  float64
	TenantBurst int
	// RetryMax is the maximum total attempts per Do call (first try
	// included); <= 0 means 1, i.e. no policy retries. Retries are
	// additionally budgeted: each completed request earns RetryBudget
	// retry tokens (default 0.1) and each retry spends one, so a
	// persistently failing workload cannot amplify itself more than
	// RetryBudget-fold.
	RetryMax     int
	RetryBudget  float64
	RetryBackoff time.Duration // base backoff between attempts; <= 0 means 1ms
	// HedgeAfter, when positive, issues one hedged second attempt if the
	// first has not resolved within this latency threshold; the first
	// result wins. Queries are pure, so hedging is index-exact by
	// construction.
	HedgeAfter time.Duration
}

// Pool states reported by Stats.State.
const (
	StateServing  = "serving"
	StateDraining = "draining"
	StateClosed   = "closed"
)

// Pool is a goroutine-safe front end sharding queries across
// worker-owned batch.Drivers. Create with New, submit from any number
// of goroutines, Close when done.
type Pool struct {
	mode    pram.Mode
	opt     Options
	workers int
	chaos   *faults.Injector

	queue    chan *Ticket
	mu       sync.RWMutex // guards closed against concurrent Submit
	closed   bool
	state    atomic.Int32   // 0 serving, 1 draining, 2 closed
	inflight sync.WaitGroup // submitted but unanswered queries
	done     sync.WaitGroup // running workers
	subSeq   atomic.Int64   // chaos unit ids for the submit path

	served []shardCount

	obsC *obs.Counters
}

// shardCount is a per-worker query counter, padded to its own cache
// line so neighbouring shards don't false-share. Atomic so Stats can
// read mid-serve.
type shardCount struct {
	n   atomic.Int64
	pad [7]int64
}

func (s *shardCount) add(n int64) { s.n.Add(n) }
func (s *shardCount) load() int64 { return s.n.Load() }

// New returns a running Pool whose drivers use the given PRAM mode.
func New(mode pram.Mode, opt Options) *Pool {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		// One buffered ticket per worker lets submitters run ahead of
		// the shards without unbounding the queue.
		depth = w
	}
	p := &Pool{
		mode:    mode,
		opt:     opt,
		workers: w,
		chaos:   opt.Chaos,
		queue:   make(chan *Ticket, depth),
		served:  make([]shardCount, w),
	}
	if p.chaos == nil {
		p.chaos = faults.Global()
	}
	if o := obs.Global(); o != nil {
		p.obsC = o.Site("serve")
	}
	p.done.Add(w)
	for i := 0; i < w; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the shard count.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the submit-queue buffer size.
func (p *Pool) QueueDepth() int { return cap(p.queue) }

// Chaos returns the serving-boundary fault injector (nil when chaos is
// off), for the admission front to share.
func (p *Pool) Chaos() *faults.Injector { return p.chaos }

// ContextError converts a done context into the serving layer's typed
// error: ErrDeadlineExceeded (also matching context.DeadlineExceeded)
// when the deadline passed, merr.ErrCanceled otherwise. It is the one
// classification every layer of the serving stack (pool, admission
// front, HTTP front end) shares, so a deadline reads the same whether
// it expired at submission, in the queue, or mid-evaluation.
func ContextError(ctx context.Context) error { return ctxError(ctx) }

func ctxError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) || errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, context.DeadlineExceeded)
	}
	return merr.Canceled(ctx.Err())
}

// Submit enqueues q and returns its ticket, or ErrClosed after Close.
// Submit blocks only while every worker is busy and the queue buffer is
// full — the natural backpressure of a saturated pool. Callers that
// must not block past a deadline use SubmitCtx; callers that must not
// block at all use TrySubmit.
func (p *Pool) Submit(q Query) (*Ticket, error) {
	return p.submit(context.Background(), q, true)
}

// SubmitCtx is Submit bounded by the caller's context: a submitter
// blocked on a full queue unblocks with ErrDeadlineExceeded or
// merr.ErrCanceled the moment ctx is done, and the context travels with
// the query — workers drop it before evaluation if it expires while
// queued, and abort it at the next superstep if it expires mid-run.
// An already-done ctx fails fast without enqueueing anything.
func (p *Pool) SubmitCtx(ctx context.Context, q Query) (*Ticket, error) {
	return p.submit(ctx, q, true)
}

// TrySubmit is SubmitCtx that never blocks: a full queue returns
// ErrOverloaded immediately. It is the admission primitive of the
// load-discipline front — rejection is instantaneous and typed, so an
// overloaded pool degrades into fast failures instead of a convoy of
// blocked submitters.
func (p *Pool) TrySubmit(ctx context.Context, q Query) (*Ticket, error) {
	return p.submit(ctx, q, false)
}

func (p *Pool) submit(ctx context.Context, q Query, wait bool) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxError(ctx)
	}
	t := &Ticket{q: q, done: make(chan struct{})}
	if ctx != context.Background() {
		t.ctx = ctx
	}
	// The read lock covers only the closed check and the inflight
	// registration — never the enqueue — so Close's write lock is never
	// delayed by a submitter stuck on a full queue. The send below still
	// always has a live receiver: Close cannot close the queue until
	// inflight drains, and our registration is part of inflight, so the
	// workers keep draining until this query (once enqueued) is
	// answered.
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrClosed
	}
	p.inflight.Add(1)
	p.mu.RUnlock()

	if p.chaos != nil {
		if d := p.chaos.QueueStall(p.subSeq.Add(1)); d > 0 {
			time.Sleep(d)
		}
	}
	if p.obsC != nil {
		t.enq = time.Now()
	}
	if wait {
		select {
		case p.queue <- t:
		case <-ctx.Done():
			p.inflight.Done()
			return nil, ctxError(ctx)
		}
	} else {
		select {
		case p.queue <- t:
		default:
			p.inflight.Done()
			return nil, fmt.Errorf("%w: queue full (%d waiting)", ErrOverloaded, cap(p.queue))
		}
	}
	if p.obsC != nil {
		// Depth is sampled at enqueue, after the send: the previous
		// pre-send sample systematically under-reported the peak under
		// contention (every concurrent submitter read the same length).
		depth := int64(len(p.queue))
		obs.StoreMax(&p.obsC.QueueDepthPeak, depth)
		p.obsC.QueueDepth.Store(depth)
	}
	return t, nil
}

// RowMinimaStream submits one row-minima query per matrix and returns a
// channel yielding results in submission order, closed after the last.
// Submission failures (a pool closed mid-stream) arrive in-band as
// results with Err set, keeping the channel aligned with the input.
func (p *Pool) RowMinimaStream(as []marray.Matrix) <-chan Result {
	tickets := make(chan *Ticket, p.workers)
	go func() {
		defer close(tickets)
		for _, a := range as {
			t, err := p.Submit(Query{Kind: RowMinima, A: a})
			if err != nil {
				t = errTicket(err)
			}
			tickets <- t
		}
	}()
	out := make(chan Result)
	go func() {
		defer close(out)
		for t := range tickets {
			out <- t.Result()
		}
	}()
	return out
}

// Wait blocks until every query submitted so far has resolved. The pool
// keeps serving; Wait is the batch barrier, Close the shutdown.
func (p *Pool) Wait() { p.inflight.Wait() }

// Close drains the pool and stops its workers: pending queries still
// resolve, Submits during and after Close return ErrClosed, and every
// worker goroutine has exited when Close returns. While the drain runs
// the pool reports StateDraining through Stats, then StateClosed. Close
// is idempotent and safe to call concurrently; late callers block until
// shutdown is complete.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		p.state.Store(1)
		p.inflight.Wait()
		close(p.queue)
	}
	p.done.Wait()
	if !already {
		p.state.Store(2)
		if p.obsC != nil {
			st := p.Stats()
			p.obsC.ShardImbalance.Store(st.Imbalance)
		}
	}
}

// Stats is a point-in-time view of the pool's serving counters.
type Stats struct {
	Workers    int
	State      string  // StateServing, StateDraining, or StateClosed
	QueueDepth int     // queries currently waiting in the submit queue
	Queries    int64   // total queries answered
	PerWorker  []int64 // queries answered by each shard
	Imbalance  int64   // max minus min of PerWorker

	// Deprecated: workers evaluate inputs directly and keep no tile
	// cache, so CacheHits and CacheMisses are always zero.
	CacheHits, CacheMisses int64
}

// Stats snapshots the serving counters. Safe to call at any time,
// including while queries are in flight (counts may be mid-update).
func (p *Pool) Stats() Stats {
	st := Stats{Workers: p.workers, PerWorker: make([]int64, p.workers)}
	switch p.state.Load() {
	case 0:
		st.State = StateServing
	case 1:
		st.State = StateDraining
	default:
		st.State = StateClosed
	}
	if st.State != StateClosed {
		st.QueueDepth = len(p.queue)
	}
	min, max := int64(-1), int64(0)
	for i := range p.served {
		n := p.served[i].load()
		st.PerWorker[i] = n
		st.Queries += n
		if min < 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min >= 0 {
		st.Imbalance = max - min
	}
	return st
}

// mergeCtx derives the context one query runs under when it carries its
// own caller context on top of a pool context: done when either is
// done, with the query context's cause preserved so deadline expiry
// classifies correctly. The release function must be called after the
// query resolves.
func mergeCtx(pool, query context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(pool)
	stop := context.AfterFunc(query, func() { cancel(context.Cause(query)) })
	return ctx, func() { stop(); cancel(nil) }
}

// worker is one shard: a private driver drained from the shared queue.
func (p *Pool) worker(id int) {
	defer p.done.Done()
	d := batch.NewWithBackend(p.mode, p.opt.Backend)
	d.SetMachineWorkers(1)
	if p.opt.Context != nil {
		d.SetContext(p.opt.Context)
	}
	if p.opt.Faults != nil {
		d.SetFaults(p.opt.Faults)
	}
	defer d.Close()
	// The worker's (min,+) engine borrows its driver, so the driver's
	// machines stay shard-private.
	eng := minplus.NewWith(d)
	for t := range p.queue {
		if p.obsC != nil {
			p.obsC.QueueDepth.Store(int64(len(p.queue)))
			if !t.enq.IsZero() {
				p.obsC.QueueWait.Observe(time.Since(t.enq))
			}
		}
		if p.chaos != nil {
			if slow := p.chaos.SlowShard(id, p.served[id].load()); slow > 0 {
				time.Sleep(slow)
			}
		}
		t.res = p.resolve(d, eng, t)
		p.served[id].add(1)
		if p.obsC != nil {
			p.obsC.QueriesServed.Add(1)
		}
		close(t.done)
		p.inflight.Done()
	}
}

// resolve answers one dequeued ticket, enforcing its deadline around
// the evaluation: an already-expired query is dropped before any work,
// and a query aborted mid-run by its own context resolves with the
// deadline/cancel classification instead of the machine's raw
// cancellation error.
func (p *Pool) resolve(d *batch.Driver, eng *minplus.Engine, t *Ticket) Result {
	if t.ctx == nil {
		return answer(d, eng, t.q)
	}
	if t.ctx.Err() != nil {
		if p.obsC != nil {
			p.obsC.DeadlineExpired.Add(1)
		}
		return Result{Err: ctxError(t.ctx)}
	}
	runCtx, release := t.ctx, func() {}
	if p.opt.Context != nil {
		runCtx, release = mergeCtx(p.opt.Context, t.ctx)
	}
	d.SetContext(runCtx)
	res := answer(d, eng, t.q)
	release()
	d.SetContext(p.opt.Context)
	if res.Err != nil && t.ctx.Err() != nil && errors.Is(res.Err, merr.ErrCanceled) {
		res.Err = ctxError(t.ctx)
	}
	return res
}

// answer runs one query on the shard's driver, converting any thrown
// merr condition into the ticket's error.
func answer(d *batch.Driver, eng *minplus.Engine, q Query) (res Result) {
	defer merr.Catch(&res.Err)
	switch q.Kind {
	case RowMinima:
		res.Idx = d.RowMinima(q.A)
	case StaircaseRowMinima:
		res.Idx = d.StaircaseRowMinima(q.A)
	case TubeMaxima:
		res.TubeJ, res.TubeV = d.TubeMaxima(q.C)
	case SubmatrixMax:
		if q.Index == nil {
			merr.Throwf(merr.ErrDimensionMismatch, "serve: SubmatrixMax query without an index")
		}
		res.Pos = q.Index.SubmatrixMax(q.R1, q.R2, q.C1, q.C2)
	case RangeRowMinima:
		if q.Index == nil {
			merr.Throwf(merr.ErrDimensionMismatch, "serve: RangeRowMinima query without an index")
		}
		res.Idx = q.Index.RangeRowMinima(q.R1, q.R2)
	case MinPlus:
		res.Prod = eng.Multiply(q.A, q.B)
	case MLinkPath:
		if q.W == nil {
			merr.Throwf(merr.ErrDimensionMismatch, "serve: MLinkPath query without a weight function")
		}
		res.Cost, res.Idx = eng.MLinkPath(q.N, q.W, q.M)
	default:
		merr.Throwf(ErrUnknownKind, "serve: unknown query kind %d", int(q.Kind))
	}
	return res
}
