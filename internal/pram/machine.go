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
// The runtime envelope is exec.Sim, which Machine embeds and shares with
// the networks of internal/hypercube: the time/work counters, the worker
// pool, the observer, the context and fault injector, the scratch arena
// and ParallelDo's branch accounting. The PRAM adds its processor count,
// step counter and buffered CREW/CRCW writes. Supersteps execute on the
// persistent worker pool of internal/exec, so the simulation is itself
// parallel, but the reproduced quantities are the step/time/work
// counters, not wall-clock speed. The pool's deterministic chunking
// guarantees identical outputs and charged costs for any worker count;
// child machines created by ParallelDo inherit the parent's envelope.
package pram

import (
	"fmt"
	"sync"
	"sync/atomic"

	"monge/internal/exec"
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

// Machine is a simulated PRAM. The runtime envelope it shares with the
// networks (time/work counters, pool, observer, context, faults, arena)
// is the embedded exec.Sim, whose methods it promotes.
type Machine struct {
	exec.Sim

	mode  Mode
	procs int
	steps int64 // number of supersteps

	// dirty lists the arrays with pending writes in the current step; an
	// array registers itself on its first write of a step and is flushed
	// and cleared at the step barrier. Tracking only dirty arrays keeps
	// step cost independent of how many arrays were ever allocated and
	// lets abandoned temporaries be garbage collected. The backing slice
	// is retained across steps ([:0] at the barrier), so registration
	// itself stops allocating after the first step.
	dirtyMu sync.Mutex
	dirty   []flusher
}

type flusher interface {
	// flush applies the pending writes of the given step and reports how
	// many records were applied plus the largest single-shard burst
	// (contention proxy).
	flush(m *Machine, step int64) (writes, maxShard int)
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
	return &Machine{Sim: exec.NewSim("pram"), mode: mode, procs: max(procs, 1)}
}

// child returns a machine for a ParallelDo branch: same mode, the given
// declared processor count, and the parent's runtime envelope
// (exec.Child). The shell is recycled from the parent's arena when
// possible; arrays created on a finished branch stay readable (recycling
// never touches committed array state), and writing them is already
// outside the ParallelDo contract.
func (m *Machine) child(procs int) *Machine {
	sub := exec.Child[Machine](&m.Sim)
	sub.mode, sub.procs, sub.steps = m.mode, max(procs, 1), 0
	sub.dirty = sub.dirty[:0]
	return sub
}

// Mode returns the machine's memory access mode.
func (m *Machine) Mode() Mode { return m.mode }

// Procs returns the declared processor count.
func (m *Machine) Procs() int { return m.procs }

// Steps returns the number of supersteps executed.
func (m *Machine) Steps() int64 { return m.steps }

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
	return Cost{Steps: m.steps, Time: m.Time(), Work: m.Work()}
}

// Reset clears the cost counters (registered arrays keep their contents),
// releases the scratch arena to the garbage collector, and shuts down the
// machine's private pool, if any (exec.Sim.Reset).
func (m *Machine) Reset() {
	m.Sim.Reset()
	m.steps = 0
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
// cost * n. Injected stalls and timeouts add their recovery charges
// (exec.Step.Compute); a cancelled step drops its buffered writes, so
// committed state stays exactly as of the last completed barrier.
func (m *Machine) StepCost(n, cost int, body func(id int)) {
	if n <= 0 {
		return
	}
	cost = max(cost, 1)
	st := exec.Begin(&m.Sim, m.discardDirty)
	m.steps++
	st.Compute(n, cost, int64(cost)*int64((n+m.procs-1)/m.procs), body)
	m.flush(st.ID())
	st.End("step")
}

// flush commits every buffered write of the given step at the barrier.
func (m *Machine) flush(step int64) {
	writes, maxShard := 0, 0
	for _, a := range m.dirty {
		w, ms := a.flush(m, step)
		writes += w
		maxShard = max(maxShard, ms)
	}
	m.dirty = m.dirty[:0]
	if c := exec.Counters(&m.Sim); c != nil {
		c.Add(obs.SharedWrites, int64(writes))
		c.StoreMax(obs.WriteShardPeak, int64(maxShard))
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
	exec.Counters(&a.m.Sim).Add(obs.SharedReads, 1)
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
func (a *Array[T]) flush(m *Machine, step int64) (writes, maxShard int) {
	atomic.StoreInt32(&a.dirty, 0)
	c := exec.Counters(&m.Sim)
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
				c.Add(obs.ConflictsSamePid, 1)
			case m.mode == CREW:
				c.Add(obs.ConflictsCREW, 1)
				merr.Throw(&ConflictError{Index: r.idx, Pid1: cur, Pid2: r.pid})
			default:
				// Priority CRCW: the resolution between distinct writers is
				// counted whichever pid wins the cell.
				c.Add(obs.ConflictsPriority, 1)
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
