// Package pram provides a step-synchronous PRAM simulator with CREW and
// CRCW modes, plus the standard PRAM primitives (parallel prefix, reduce,
// broadcast, pack, segmented scan, and All Nearest Smaller Values) used by
// the paper's algorithms.
//
// # Model
//
// A Machine is created with a declared processor count P and a memory
// access mode. An algorithm executes a sequence of supersteps via Step: all
// virtual processors of a superstep read the shared state as it was at the
// beginning of the step, and their writes take effect when the step ends
// (writes are buffered and flushed at a synchronization barrier). A
// superstep with n virtual processors whose body performs O(1) work costs
// ceil(n/P) time units, which is exactly Brent's scheduling of n virtual
// processors onto P physical ones; StepCost is used when a body performs t
// elementary operations so the accounting stays honest.
//
// In CREW mode the machine verifies that no two distinct processors write
// the same cell in the same step and throws a *ConflictError (matching
// merr.ErrWriteConflict, recoverable at the public error-returning APIs)
// otherwise. In CRCW mode concurrent writes are resolved by the priority
// rule (lowest processor id wins), which is deterministic and at least as
// strong as the common and arbitrary CRCW variants assumed by the paper.
//
// # Robustness
//
// SetContext attaches a context checked at every superstep boundary: a
// cancelled context discards the step's buffered writes and throws
// merr.ErrCanceled, so a long simulation stops within one superstep with
// the pool drained. SetFaults attaches a faults.Injector (the
// environment-configured faults.Global by default): injected chunk stalls
// are recovered by re-dispatch and injected superstep timeouts by
// re-execution, both charged to the time/work counters, while outputs
// stay index-exact because failed attempts are effect-free (writes are
// buffered until the barrier). Children inherit both.
//
// Supersteps execute on the persistent worker pool of internal/exec, so
// the simulation is itself parallel, but the reproduced quantities are the
// step/time/work counters, not wall-clock speed. The pool's deterministic
// chunking guarantees identical outputs and charged costs for any worker
// count; child machines created by ParallelDo inherit the parent's pool
// and observability handles.
package pram

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"monge/internal/exec"
	"monge/internal/faults"
	"monge/internal/merr"
	"monge/internal/obs"
)

// Mode selects the memory access discipline of a Machine.
type Mode int

const (
	// CREW permits concurrent reads and exclusive writes; concurrent
	// writes to one cell in one step are reported as conflicts.
	CREW Mode = iota
	// CRCW permits concurrent reads and concurrent writes; write conflicts
	// are resolved by priority (lowest processor id wins).
	CRCW
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case CREW:
		return "CREW"
	case CRCW:
		return "CRCW"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ConflictError reports a CREW write conflict. A conflicting program is
// incorrect by definition, so the conflict is thrown (merr.Throw) from the
// step barrier of Machine.Step; error-returning entry points recover it
// with merr.Catch, and it matches merr.ErrWriteConflict under errors.Is.
type ConflictError struct {
	Index      int // memory cell index
	Pid1, Pid2 int // the two writers
}

// Error describes the conflict.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("%v: cell %d written by processors %d and %d",
		merr.ErrWriteConflict, e.Index, e.Pid1, e.Pid2)
}

// Unwrap matches the conflict to merr.ErrWriteConflict under errors.Is.
func (e *ConflictError) Unwrap() error { return merr.ErrWriteConflict }

// Machine is a simulated PRAM.
type Machine struct {
	mode  Mode
	procs int

	time  int64 // Brent-adjusted parallel time units
	steps int64 // number of supersteps
	work  int64 // total virtual processor activations

	stepID int64

	// pool executes the parallel loops of every superstep; ownPool marks a
	// private pool installed by SetWorkers, which Reset shuts down (the
	// shared exec.Default pool is left running for other machines).
	pool    *exec.Pool
	ownPool bool
	// obsC and tracer are the machine's observability handles (nil when
	// the layer is off): obsC is the "pram" counter site, tracer records
	// one wall-clock span per charged superstep. Captured from the
	// process-wide obs.Global at creation; child machines inherit both.
	obsC   *obs.Counters
	tracer *obs.Tracer

	// ctx, when non-nil, is polled at superstep boundaries; cancellation
	// throws merr.ErrCanceled. faults, when enabled, injects chunk stalls
	// and superstep timeouts. Child machines inherit both.
	ctx    context.Context
	faults *faults.Injector

	// dirty lists the arrays with pending writes in the current step; an
	// array registers itself on its first write of a step and is flushed
	// and cleared at the step barrier. Tracking only dirty arrays keeps
	// step cost independent of how many arrays were ever allocated and
	// lets abandoned temporaries be garbage collected. The backing slice
	// is retained across steps ([:0] at the barrier), so registration
	// itself stops allocating after the first step.
	dirtyMu sync.Mutex
	dirty   []flusher

	// arena recycles Array storage (see arena.go). ParallelDo children
	// share the parent's arena, so a subproblem's temporaries feed the
	// next subproblem; Reset releases it.
	arena *arrayArena
}

type flusher interface {
	// flush applies the pending writes and reports how many records were
	// applied plus the largest single-shard burst (contention proxy).
	flush(m *Machine) (writes, maxShard int)
	// discard drops the pending writes without applying them (cancelled
	// step: committed state must stay at the last completed barrier).
	discard()
}

// markDirty registers f for flushing at the end of the current step.
func (m *Machine) markDirty(f flusher) {
	m.dirtyMu.Lock()
	m.dirty = append(m.dirty, f)
	m.dirtyMu.Unlock()
}

// New returns a Machine with the given mode and declared processor count.
// The processor count only affects the time accounting (Brent scheduling);
// the simulation runs on the shared exec.Default worker pool (sized by
// GOMAXPROCS) unless SetWorkers installs a private one, and attaches the
// process-wide observer (obs.Global) if one is installed.
func New(mode Mode, procs int) *Machine {
	if procs < 1 {
		procs = 1
	}
	m := &Machine{
		mode: mode, procs: procs,
		pool: exec.Default(), faults: faults.Global(),
		arena: newArrayArena(),
	}
	if o := obs.Global(); o != nil {
		m.obsC = o.Site("pram")
		m.tracer = o.Tracer()
	}
	return m
}

// child returns a machine for a ParallelDo branch: same mode, the given
// declared processor count, and — crucially — the parent's pool and observer
// handles, so recursive subproblems stay on the persistent runtime and remain
// traced end-to-end instead of silently falling back to a default. The
// shell is recycled from the parent's arena when possible; ParallelDo
// returns it via releaseChild once the branch and its accounting are
// done.
func (m *Machine) child(procs int) *Machine {
	if procs < 1 {
		procs = 1
	}
	if ar := m.arena; ar != nil {
		if sub := ar.getMachine(); sub != nil {
			sub.mode = m.mode
			sub.procs = procs
			sub.time, sub.steps, sub.work, sub.stepID = 0, 0, 0, 0
			sub.pool, sub.ownPool = m.pool, false
			sub.obsC, sub.tracer = m.obsC, m.tracer
			sub.ctx, sub.faults = m.ctx, m.faults
			sub.arena = ar
			sub.dirty = sub.dirty[:0]
			return sub
		}
	}
	sub := New(m.mode, procs)
	sub.pool = m.pool
	sub.obsC = m.obsC
	sub.tracer = m.tracer
	sub.ctx = m.ctx
	sub.faults = m.faults
	sub.arena = m.arena
	return sub
}

// releaseChild retains a finished branch machine for reuse by a later
// child call. Arrays created on the branch stay readable (recycling
// never touches committed array state); writing them is already outside
// the ParallelDo contract.
func (m *Machine) releaseChild(sub *Machine) {
	if m.arena != nil && !sub.ownPool {
		m.arena.putMachine(sub)
	}
}

// SetWorkers installs a private worker pool with the given worker count,
// replacing the shared default. It exists for determinism and overhead
// experiments; outputs and charged costs are identical for any value (the
// runtime's chunking contract). A previous private pool is shut down.
func (m *Machine) SetWorkers(w int) {
	if m.ownPool {
		m.pool.Close()
	}
	m.pool = exec.NewPool(w)
	m.ownPool = true
}

// Workers returns the worker count of the machine's pool.
func (m *Machine) Workers() int { return m.pool.Workers() }

// SetObserver attaches the machine to an observability layer: its "pram"
// counter site and, if tracing is enabled on o, its span tracer (nil
// detaches both). ParallelDo children inherit the handles.
func (m *Machine) SetObserver(o *obs.Observer) {
	m.obsC = o.Site("pram")
	m.tracer = o.Tracer()
}

// SetContext attaches a context polled at every superstep boundary: once
// it is cancelled the next Step discards its buffered writes and throws
// merr.ErrCanceled (also matching the context's own error), which the
// public error-returning APIs recover. Nil detaches. ParallelDo children
// inherit it.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// Context returns the attached context (nil when none).
func (m *Machine) Context() context.Context { return m.ctx }

// SetFaults attaches a fault injector (nil disables injection). Machines
// start with the environment-configured faults.Global injector; ParallelDo
// children inherit the parent's.
func (m *Machine) SetFaults(in *faults.Injector) { m.faults = in }

// Faults returns the attached fault injector (nil when none).
func (m *Machine) Faults() *faults.Injector { return m.faults }

// Mode returns the machine's memory access mode.
func (m *Machine) Mode() Mode { return m.mode }

// Procs returns the declared processor count.
func (m *Machine) Procs() int { return m.procs }

// Time returns the accumulated Brent-adjusted parallel time: the sum over
// supersteps of cost * ceil(n/P).
func (m *Machine) Time() int64 { return m.time }

// Steps returns the number of supersteps executed.
func (m *Machine) Steps() int64 { return m.steps }

// Work returns the total number of virtual processor activations, weighted
// by per-step cost (the processor-time product of the simulated program).
func (m *Machine) Work() int64 { return m.work }

// Cost is one reading of a machine's cumulative cost counters. Two
// readings subtract to the cost charged between them, which is how
// per-query stats are carved out of a long-lived machine.
type Cost struct {
	Steps int64
	Time  int64
	Work  int64
}

// Sub returns the cost charged between the earlier reading before and
// this one.
func (c Cost) Sub(before Cost) Cost {
	return Cost{Steps: c.Steps - before.Steps, Time: c.Time - before.Time, Work: c.Work - before.Work}
}

// CostSnapshot returns the current cumulative counters as one value, for
// before/after diffing around a query.
func (m *Machine) CostSnapshot() Cost {
	return Cost{Steps: m.steps, Time: m.time, Work: m.work}
}

// Reset clears the cost counters (registered arrays keep their contents),
// releases the scratch arena to the garbage collector, and shuts down the
// machine's private pool, if any; the pool restarts lazily if the machine
// is used again. The shared default pool is left running for other
// machines.
func (m *Machine) Reset() {
	m.time, m.steps, m.work = 0, 0, 0
	if m.arena != nil {
		m.arena.release()
	}
	if m.ownPool {
		m.pool.Close()
	}
}

// Step executes one superstep with n virtual processors, each running
// body(id) for its zero-based id. The body must perform O(1) work; use
// StepCost otherwise. Reads performed through Array handles observe the
// state at the beginning of the step; writes are applied when the step
// completes.
func (m *Machine) Step(n int, body func(id int)) {
	m.StepCost(n, 1, body)
}

// StepCost is Step for bodies that perform cost elementary operations
// each; the time charge is cost * ceil(n/P) and the work charge is
// cost * n.
func (m *Machine) StepCost(n, cost int, body func(id int)) {
	if n <= 0 {
		return
	}
	if cost < 1 {
		cost = 1
	}
	if m.ctx != nil {
		if cause := m.ctx.Err(); cause != nil {
			m.discardDirty()
			merr.Throw(merr.Canceled(cause))
		}
	}
	m.steps++
	base := int64(cost) * int64((n+m.procs-1)/m.procs)
	timeBefore, workBefore := m.time, m.work
	m.time += base
	m.work += int64(cost) * int64(n)
	m.stepID++

	var spanStart time.Time
	if m.tracer != nil {
		spanStart = m.tracer.Begin()
	}

	var chunks int
	var stalls int64
	if m.ctx == nil && !m.faults.Enabled() {
		// Fast path: no cancellation points, no injection hooks.
		chunks = m.pool.For(n, body)
	} else {
		res, err := m.pool.Run(exec.Loop{
			N: n, Body: body, Ctx: m.ctx, Stall: m.faults.StallFn(m.stepID),
		})
		chunks, stalls = res.Chunks, res.Stalls
		if err != nil {
			// The step is partial; drop its buffered writes so committed
			// state stays exactly as of the last completed barrier.
			m.discardDirty()
			merr.Throw(merr.Canceled(err))
		}
		if m.faults.Enabled() {
			// Charge the recoveries: each stalled chunk attempt re-executes
			// one chunk (one extra time unit per stall at full chunk work),
			// and each superstep timeout re-executes the whole step. The
			// failed attempts are effect-free, so only the counters move.
			if stalls > 0 {
				size, _ := exec.ChunkBounds(n)
				if size > n {
					size = n
				}
				m.time += int64(cost) * stalls
				m.work += int64(cost) * int64(size) * stalls
			}
			if t := m.faults.StepTimeouts(m.stepID); t > 0 {
				m.time += int64(t) * base
				m.work += int64(t) * int64(cost) * int64(n)
				m.obsC.Add(obs.FaultTimeouts, int64(t))
			}
		}
	}

	writes, maxShard := 0, 0
	for _, a := range m.dirty {
		w, ms := a.flush(m)
		writes += w
		if ms > maxShard {
			maxShard = ms
		}
	}
	m.dirty = m.dirty[:0]

	if c := m.obsC; c != nil {
		c.Add(obs.Supersteps, 1)
		c.Add(obs.ChargedTime, m.time-timeBefore)
		c.Add(obs.ChargedWork, m.work-workBefore)
		c.Add(obs.SharedWrites, int64(writes))
		c.StoreMax(obs.WriteShardPeak, int64(maxShard))
		c.Add(obs.PoolChunks, int64(chunks))
		if stalls > 0 {
			c.Add(obs.FaultStalls, stalls)
		}
	}
	if m.tracer != nil {
		m.tracer.End("pram", "step", spanStart, n, cost, chunks)
	}
}

// discardDirty drops every buffered write of the current (abandoned) step
// without committing, leaving the arrays at the last completed barrier.
func (m *Machine) discardDirty() {
	m.dirtyMu.Lock()
	d := m.dirty
	m.dirty = m.dirty[:0]
	m.dirtyMu.Unlock()
	for _, f := range d {
		f.discard()
	}
}

// Sequential runs body outside the parallel cost model (for setup and
// verification code in tests and benchmarks). It costs nothing and flushes
// nothing; do not call Array.Write from it.
func (m *Machine) Sequential(body func()) { body() }

// shardCount is the number of write-buffer shards per array; writes are
// sharded by cell index to reduce lock contention.
const shardCount = 64

type writeRec[T any] struct {
	idx int
	pid int
	val T
}

type shard[T any] struct {
	mu   sync.Mutex
	recs []writeRec[T]
}

// Array is a shared-memory vector of T living on a Machine. Reads return
// the value committed at the last step boundary; writes become visible
// when the current step ends.
type Array[T any] struct {
	m      *Machine
	vals   []T
	stamp  []int64 // stepID of the last pending/committed write this step
	owner  []int32 // winning writer pid for the current step
	dirty  int32   // 1 while registered in the machine's dirty list
	shards [shardCount]shard[T]
}

// NewArray returns a shared array of length n filled with the zero value
// on machine m. Storage comes from the machine's scratch arena when a
// previously Freed array of the same element type fits (zeroed at
// checkout, so the zero-value contract holds either way); otherwise it is
// freshly allocated.
func NewArray[T any](m *Machine, n int) *Array[T] {
	if a := checkoutArray[T](m, n); a != nil {
		return a
	}
	return &Array[T]{
		m:     m,
		vals:  make([]T, n),
		stamp: make([]int64, n),
		owner: make([]int32, n),
	}
}

// Len returns the array length.
func (a *Array[T]) Len() int { return len(a.vals) }

// Read returns the committed value of cell i. When an observer is
// attached the read is counted as one shared-memory access; the disabled
// path is a single nil check on a cached field.
func (a *Array[T]) Read(i int) T {
	a.m.obsC.Add(obs.SharedReads, 1)
	return a.vals[i]
}

// Write records a pending write of v to cell i by processor pid; it takes
// effect at the end of the current step.
func (a *Array[T]) Write(pid, i int, v T) {
	if atomic.CompareAndSwapInt32(&a.dirty, 0, 1) {
		a.m.markDirty(a)
	}
	s := &a.shards[i%shardCount]
	s.mu.Lock()
	s.recs = append(s.recs, writeRec[T]{idx: i, pid: pid, val: v})
	s.mu.Unlock()
}

// Fill sets every cell outside the parallel cost model (initial input
// placement, as the paper assumes inputs reside in memory at time zero).
func (a *Array[T]) Fill(vals []T) {
	copy(a.vals, vals)
}

// Set assigns one cell outside the parallel cost model.
func (a *Array[T]) Set(i int, v T) { a.vals[i] = v }

// Snapshot returns a copy of the committed contents.
func (a *Array[T]) Snapshot() []T {
	out := make([]T, len(a.vals))
	copy(out, a.vals)
	return out
}

// discard drops all pending writes without applying them.
func (a *Array[T]) discard() {
	atomic.StoreInt32(&a.dirty, 0)
	for si := range a.shards {
		s := &a.shards[si]
		s.mu.Lock()
		s.recs = s.recs[:0]
		s.mu.Unlock()
	}
}

// flush applies pending writes under the machine's conflict rules and
// reports the applied record count and the largest single shard.
func (a *Array[T]) flush(m *Machine) (writes, maxShard int) {
	atomic.StoreInt32(&a.dirty, 0)
	step := m.stepID
	for si := range a.shards {
		s := &a.shards[si]
		if len(s.recs) == 0 {
			continue
		}
		writes += len(s.recs)
		if len(s.recs) > maxShard {
			maxShard = len(s.recs)
		}
		for _, r := range s.recs {
			if a.stamp[r.idx] != step {
				a.stamp[r.idx] = step
				a.owner[r.idx] = int32(r.pid)
				a.vals[r.idx] = r.val
				continue
			}
			cur := int(a.owner[r.idx])
			switch {
			case r.pid == cur:
				// Later write by the same processor wins (program order
				// within one processor is preserved by the shard slice).
				a.vals[r.idx] = r.val
				m.obsC.Add(obs.ConflictsSamePid, 1)
			case m.mode == CREW:
				m.obsC.Add(obs.ConflictsCREW, 1)
				merr.Throw(&ConflictError{Index: r.idx, Pid1: cur, Pid2: r.pid})
			default:
				// Priority CRCW: the resolution between distinct writers is
				// counted whichever pid wins the cell.
				m.obsC.Add(obs.ConflictsPriority, 1)
				if r.pid < cur {
					// Lowest pid wins.
					a.owner[r.idx] = int32(r.pid)
					a.vals[r.idx] = r.val
				}
			}
		}
		s.recs = s.recs[:0]
	}
	return writes, maxShard
}
