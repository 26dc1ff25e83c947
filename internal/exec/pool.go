// Package exec is the shared execution runtime of the simulated machines:
// a persistent worker pool with deterministic chunk assignment (Pool), and
// the runtime envelope both machine families embed (Sim). Sim declares,
// once for the PRAM and the networks, the time/work counters, pool
// ownership, observer handles, context and fault attachment, the charged
// step (Begin, Step.Compute/Dispatch/End: the stall-aware dispatch, its
// recovery charges, step metrics and spans), the scratch arena with its
// child-machine shells (Recycle, Child), and branch accounting
// (ParallelDo).
//
// # Why a shared runtime
//
// Both simulated machine families (the PRAM of internal/pram and the
// networks of internal/hypercube) execute every charged superstep as a
// data-parallel loop over virtual processors. Spawning a fresh goroutine
// set per superstep charges the simulator a scheduler round-trip on every
// one of the (often thousands of) tiny steps a recursion performs. The
// Pool here is started lazily once, keeps its workers parked on a job
// channel between steps, and is reused by every superstep of every
// machine that shares it — including the child machines that ParallelDo
// creates for recursive subproblems, which inherit the parent's pool and
// observer instead of falling back to a private (or worse, sequential)
// runtime.
//
// # Dispatch
//
// A parallel loop is cut at the ChunkBounds boundaries and published to
// the workers as one shared descriptor; workers (and the calling
// goroutine, which always participates) claim chunks with an atomic
// counter. Publishing is a handful of non-blocking channel sends, so a
// loop costs O(workers) dispatch work regardless of its chunk count, and
// when every worker is busy — or the process has a single CPU — the
// caller simply executes all chunks itself at inline-loop speed.
//
// # Determinism contract
//
// Chunk boundaries are a pure function of the iteration count n (see
// ChunkBounds): they do not depend on the worker count or on GOMAXPROCS.
// Within a chunk, iterations run in increasing index order on a single
// goroutine. Which goroutine claims a chunk is scheduling-dependent, so
// loop bodies must be independent — which machine supersteps are by
// construction: all cross-processor writes are buffered and committed at
// the step barrier, never observed mid-step. Under that discipline the
// simulated outputs and every charged counter are identical for any
// worker count, which TestWorkerCountDeterminism pins down.
//
// # Faults and cancellation
//
// Run is the fault-aware, cancellable sibling of For: an optional Stall
// predicate injects transient per-chunk processor stalls that the claim
// loop detects and recovers by re-dispatching the chunk (attempts are
// effect-free, so recompute is exact), and an optional Context aborts the
// loop between chunks — remaining chunks are drained unexecuted so the
// barrier releases promptly and no worker is left mid-loop. Stall
// decisions are keyed by (chunk, attempt), never by the claiming
// goroutine, preserving the determinism contract under injection.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"monge/internal/obs"
)

const (
	// serialCutoff is the loop size below which dispatching to the pool
	// costs more than it saves; such loops run inline on the caller.
	serialCutoff = 128
	// minChunk is the smallest chunk a claimant takes: small enough to
	// split the few-hundred-processor steps row-minima recursions produce,
	// large enough that a chunk amortizes its atomic claim.
	minChunk = 128
	// maxChunks bounds the number of chunks per loop so claim traffic
	// stays bounded even for huge steps.
	maxChunks = 256
)

// ChunkBounds returns the deterministic chunk size and chunk count for a
// loop of n iterations. Both are functions of n only — never of the worker
// count — so the runtime's chunk boundaries are reproducible across
// machines and GOMAXPROCS settings.
func ChunkBounds(n int) (size, count int) {
	if n <= 0 {
		return 0, 0
	}
	size = (n + maxChunks - 1) / maxChunks
	if size < minChunk {
		size = minChunk
	}
	count = (n + size - 1) / size
	return size, count
}

// ChunkBoundsGrain is ChunkBounds for loops that declare their own grain:
// chunks cover grain iterations each (the last may be short), widened only
// if needed to respect the maxChunks claim-traffic bound. A grain <= 0
// falls back to the deterministic default sizing. Callers whose iterations
// are coarse units of work — the native backend dispatches row blocks, not
// rows — use this so a loop of a handful of blocks still yields one chunk
// per block instead of collapsing into a single inline chunk.
func ChunkBoundsGrain(n, grain int) (size, count int) {
	if grain <= 0 {
		return ChunkBounds(n)
	}
	if n <= 0 {
		return 0, 0
	}
	size = grain
	if min := (n + maxChunks - 1) / maxChunks; size < min {
		size = min
	}
	count = (n + size - 1) / size
	return size, count
}

// job is one parallel loop, shared by every goroutine helping with it.
// Chunk k covers indices [k*size, min((k+1)*size, n)); claimants take the
// next unclaimed chunk by incrementing next. The last four fields are nil
// on the For fast path: stall injects per-chunk processor stalls, stalls
// accumulates how many were delivered to this job, done is the loop
// context's Done channel, which every claimant polls before each chunk,
// and abort (set once done is closed) makes claimants drain remaining
// chunks without executing them, so the barrier releases promptly.
type job struct {
	next   *int64
	n      int
	size   int
	body   func(i int)
	wg     *sync.WaitGroup
	stall  func(chunk, attempt int) bool
	stalls *int64
	done   <-chan struct{}
	abort  *atomic.Bool
}

// runChunk recovers injected stalls for chunk k, then executes it.
func (j job) runChunk(k int64, lo int) {
	if j.stall != nil {
		st := 0
		for a := 0; j.stall(int(k), a); a++ {
			st++
		}
		if st > 0 {
			atomic.AddInt64(j.stalls, int64(st))
		}
	}
	hi := lo + j.size
	if hi > j.n {
		hi = j.n
	}
	for i := lo; i < hi; i++ {
		j.body(i)
	}
}

// run claims and executes chunks until none remain. Safe to call from any
// number of goroutines; each chunk is executed exactly once (or, after an
// abort, skipped exactly once).
func (j job) run() {
	for {
		k := atomic.AddInt64(j.next, 1) - 1
		lo := int(k) * j.size
		if lo >= j.n {
			return
		}
		if !j.aborted() {
			j.runChunk(k, lo)
		}
		j.wg.Done()
	}
}

// aborted reports whether the loop was canceled, tripping abort the
// first time a claimant sees done closed.
func (j job) aborted() bool {
	if j.abort == nil {
		return false
	}
	if j.abort.Load() {
		return true
	}
	select {
	case <-j.done:
		j.abort.Store(true)
		return true
	default:
		return false
	}
}

// Pool is a persistent worker pool. The zero value is not usable; create
// pools with NewPool or share the process-wide Default pool. Workers start
// lazily on the first parallel loop and park on the job channel between
// steps; Close stops them (idempotently) and waits for them to finish any
// chunks already claimed, and a closed pool restarts lazily if used again,
// so Machine.Reset can shut the pool down without poisoning later runs.
//
// # Lifetime contract
//
// Callers that own a pool should Close it when done: Close is the only
// deterministic shutdown point, and when it returns no pool goroutine is
// parked or mid-chunk. As a safety net, a pool that becomes unreachable
// without Close has its workers released by a runtime.AddCleanup hook:
// the channel/worker state lives in an inner poolState that the cleanup
// (and the workers) reference, never the Pool itself, so an abandoned
// Pool is collectable and its parked goroutines exit after the next GC
// cycle. The cleanup is asynchronous — tests that assert on goroutine
// counts must poll (see waitGoroutines in robust_test.go) rather than
// expect the workers gone the instant the Pool is dropped.
type Pool struct {
	workers int
	state   *poolState
}

// poolState is the shareable part of a Pool: everything the workers and
// the GC cleanup touch. It must not reference the owning Pool, or the
// cleanup would keep the Pool reachable and never run.
type poolState struct {
	// mu protects jobs and done: For/Run hold the read side while
	// publishing so that a concurrent close (write side) can never close
	// the channel mid-send.
	mu   sync.RWMutex
	jobs chan job
	// done counts the live workers of the current generation; close waits
	// on it so that, when close returns, no pool goroutine is parked or
	// mid-chunk.
	done *sync.WaitGroup
}

// NewPool returns a pool with the given number of workers (values < 1 are
// clamped to 1; a one-worker pool runs every loop inline). The workers are
// not started until the first use. See the Pool lifetime contract: Close
// deterministically, or let the AddCleanup hook reap an abandoned pool.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, state: &poolState{}}
	// The cleanup argument is the inner state, not p: workers and cleanup
	// hold only the job channel and the done group, so an unreachable pool
	// is collectable and the cleanup can release the parked goroutines.
	runtime.AddCleanup(p, func(st *poolState) { st.close() }, p.state)
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, sized by GOMAXPROCS at
// first use. Machines created without an explicit pool run on it.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = &Pool{workers: runtime.GOMAXPROCS(0), state: &poolState{}}
	})
	return defaultPool
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the pool's workers and waits for them to drain: any job
// already published is completed (a loop's caller always participates, so
// the loop finishes either way) and every worker goroutine has exited by
// the time Close returns. It is idempotent and safe to call concurrently
// with For/Run; a subsequent loop restarts the workers lazily. Do not call
// Close from inside a loop body — a worker cannot wait for itself.
func (p *Pool) Close() { p.state.close() }

func (st *poolState) close() {
	st.mu.Lock()
	jobs, done := st.jobs, st.done
	st.jobs, st.done = nil, nil
	st.mu.Unlock()
	if jobs != nil {
		close(jobs)
		done.Wait()
	}
}

// ensure starts the workers if they are not running.
func (p *Pool) ensure() {
	st := p.state
	st.mu.Lock()
	if st.jobs == nil {
		st.jobs = make(chan job, p.workers)
		st.done = new(sync.WaitGroup)
		st.done.Add(p.workers)
		for w := 0; w < p.workers; w++ {
			go worker(st.jobs, st.done)
		}
	}
	st.mu.Unlock()
}

func worker(jobs <-chan job, done *sync.WaitGroup) {
	defer done.Done()
	for j := range jobs {
		j.run()
	}
}

// publish offers the job to up to count-1 idle workers without ever
// blocking: if the buffer is full the workers are already saturated and
// the caller's own claim loop keeps the loop progressing. If a concurrent
// Close nilled the channel, the caller just does all the work itself.
// Workers draining a stale request after the loop has finished find no
// chunk to claim and park again immediately.
func (p *Pool) publish(j job, count int) {
	st := p.state
	st.mu.RLock()
	if st.jobs == nil {
		st.mu.RUnlock()
		p.ensure()
		st.mu.RLock()
	}
	helpers := p.workers - 1
	if helpers > count-1 {
		helpers = count - 1
	}
publish:
	for h := 0; h < helpers && st.jobs != nil; h++ {
		select {
		case st.jobs <- j:
		default:
			break publish
		}
	}
	st.mu.RUnlock()
}

// countLoop folds one dispatched loop into the process-wide observer's
// "exec.pool" site, when one is installed. The disabled path is a single
// atomic pointer load.
func countLoop(chunks int) {
	if o := obs.Global(); o != nil {
		c := o.Site("exec.pool")
		c.Add(obs.PoolLoops, 1)
		c.Add(obs.PoolChunks, int64(chunks))
		if chunks == 1 {
			c.Add(obs.PoolInline, 1)
		}
	}
}

// For executes body(0..n-1) on the pool and returns the number of chunks
// the loop was cut into (1 when it ran inline). The calling goroutine
// always participates, so a loop completes even if every worker is busy;
// For returns only after all iterations have completed, which is the step
// barrier of the simulated machines. This is the fast path with no fault
// or cancellation hooks; see Run for those.
func (p *Pool) For(n int, body func(i int)) int {
	if n <= 0 {
		return 0
	}
	if p.workers <= 1 || n < serialCutoff {
		for i := 0; i < n; i++ {
			body(i)
		}
		countLoop(1)
		return 1
	}
	size, count := ChunkBounds(n)
	if count == 1 {
		// A single chunk gains nothing from publishing to the workers.
		for i := 0; i < n; i++ {
			body(i)
		}
		countLoop(1)
		return 1
	}

	var next int64
	var wg sync.WaitGroup
	wg.Add(count)
	j := job{next: &next, n: n, size: size, body: body, wg: &wg}
	p.publish(j, count)
	j.run()
	wg.Wait()
	countLoop(count)
	return count
}

// Loop describes one parallel loop for Run: the iteration space and body,
// plus the optional robustness hooks the fast-path For omits.
type Loop struct {
	// N is the iteration count; Body runs for each i in [0, N).
	N    int
	Body func(i int)
	// Ctx, when non-nil, cancels the loop between chunks: once Ctx is done
	// no further chunk bodies start, the remaining chunks are drained
	// unexecuted, and Run returns Ctx.Err(). Chunks already executing
	// finish normally (they are effect-buffered machine steps).
	Ctx context.Context
	// Stall, when non-nil, reports whether the given chunk stalls on the
	// given zero-based attempt; the claimant retries until it reports
	// false, modelling detect-and-recompute recovery from transient
	// processor faults. It must be a pure function of its arguments (plus
	// injector seed/state) so the schedule is worker-count independent.
	Stall func(chunk, attempt int) bool
	// Grain, when positive, declares that each iteration is a coarse unit
	// of work: chunks are Grain iterations wide (ChunkBoundsGrain) and the
	// loop is dispatched to the workers even when N is below the serial
	// cutoff that inlines fine-grained loops. Zero keeps the default
	// deterministic sizing the simulated machines rely on.
	Grain int
}

// RunResult reports what a Run dispatch did.
type RunResult struct {
	// Chunks is the number of chunks the loop was cut into.
	Chunks int
	// Stalls is the number of stalled chunk attempts that were detected
	// and re-dispatched.
	Stalls int64
}

// Run executes the loop with fault injection and cancellation support.
// Unlike For, Run always uses the deterministic ChunkBounds structure —
// even inline on a single worker — so the injected fault schedule is
// identical for any worker count. On cancellation it returns the context
// error; the loop's effects are then partial and the caller must abandon
// the superstep (the machines throw ErrCanceled).
func (p *Pool) Run(l Loop) (RunResult, error) {
	if l.N <= 0 {
		return RunResult{}, nil
	}
	size, count := ChunkBoundsGrain(l.N, l.Grain)
	var next, stalls int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	wg.Add(count)
	j := job{
		next: &next, n: l.N, size: size, body: l.Body, wg: &wg,
		stall: l.Stall, stalls: &stalls, abort: &abort,
	}
	if l.Ctx != nil {
		j.done = l.Ctx.Done()
	}
	if p.workers > 1 && count > 1 && (l.Grain > 0 || l.N >= serialCutoff) {
		p.publish(j, count)
	}
	j.run()
	wg.Wait()
	countLoop(count)
	res := RunResult{Chunks: count, Stalls: atomic.LoadInt64(&stalls)}
	if abort.Load() {
		return res, l.Ctx.Err()
	}
	return res, nil
}
