package exec

import (
	"context"
	"reflect"
	"sync"
	"time"

	"monge/internal/faults"
	"monge/internal/merr"
	"monge/internal/obs"
)

// Sim is the runtime envelope every simulated machine embeds: the charged
// time and work counters, the worker pool, the observability handles, the
// attached context and fault injector, the step counter and the scratch
// arena. Its exported methods are promoted onto the machines and form
// their shared public surface; the package functions (NewSim, Begin,
// Child, ParallelDo, Recycle, Counters) are the hooks the machine
// implementations build their steps from.
type Sim struct {
	// site names the machine's counter site and its trace lane: "pram",
	// or the network kind.
	site string

	time   int64 // charged parallel time
	work   int64 // charged work (processor-time product)
	stepID int64 // numbers the charged steps; keys injected faults

	// pool executes the per-processor loops of every step; ownPool marks a
	// private pool installed by SetWorkers, which Reset shuts down (the
	// shared Default pool is left running for other machines).
	pool    *Pool
	ownPool bool
	// obsC is the machine's counter site and tracer its span recorder
	// (nil when the layer is off). Captured from obs.Global at creation.
	obsC   *obs.Counters
	tracer *obs.Tracer
	// ctx, when non-nil, is polled at every step boundary; cancellation
	// throws merr.ErrCanceled. faults, when enabled, injects chunk stalls
	// and step timeouts (and, on the networks, link faults).
	ctx    context.Context
	faults *faults.Injector

	arena *arena
}

// NewSim returns the envelope of a fresh machine whose counter site and
// trace lane are named site: it runs on the shared Default pool, starts
// with the environment-configured faults.Global injector, and attaches
// the process-wide observer (obs.Global) if one is installed.
func NewSim(site string) Sim {
	s := Sim{site: site, pool: Default(), faults: faults.Global(), arena: newArena()}
	if o := obs.Global(); o != nil {
		s.obsC = o.Site(site)
		s.tracer = o.Tracer()
	}
	return s
}

// sim lets the generic helpers reach the envelope of any type embedding
// Sim.
func (s *Sim) sim() *Sim { return s }

type machine interface{ sim() *Sim }

// SetWorkers installs a private worker pool with the given worker count,
// replacing the shared default. Outputs and charged costs are identical
// for any value (the runtime's chunking contract); the knob exists for
// determinism and overhead experiments. A previous private pool is shut
// down.
func (s *Sim) SetWorkers(w int) {
	if s.ownPool {
		s.pool.Close()
	}
	s.pool = NewPool(w)
	s.ownPool = true
}

// Workers returns the worker count of the machine's pool.
func (s *Sim) Workers() int { return s.pool.Workers() }

// SetObserver attaches the machine to an observability layer: its counter
// site ("pram", or the network kind) and, if tracing is enabled on o, the
// span tracer (nil detaches both). Child machines inherit the handles.
func (s *Sim) SetObserver(o *obs.Observer) {
	s.obsC = o.Site(s.site)
	s.tracer = o.Tracer()
}

// TraceSpan opens a driver-level span (an algorithm phase such as
// "RowMinima") on the machine's tracer and returns its closer; callers
// use `defer mach.TraceSpan("hcmonge", "RowMinima")()`. A no-op closure
// is returned when tracing is off.
func (s *Sim) TraceSpan(site, name string) func() {
	tr := s.tracer
	if tr == nil {
		return func() {}
	}
	t0 := tr.Begin()
	return func() { tr.End(site, name, t0, 0, 0, 0) }
}

// SetContext attaches a context polled at every charged step: once it is
// cancelled the next step drops its partial effects and throws
// merr.ErrCanceled (also matching the context's own error), which the
// public error-returning APIs recover. Nil detaches. Child machines
// inherit it.
func (s *Sim) SetContext(ctx context.Context) { s.ctx = ctx }

// Context returns the attached context (nil when none).
func (s *Sim) Context() context.Context { return s.ctx }

// SetFaults attaches a fault injector (nil disables injection). Machines
// start with the environment-configured faults.Global injector; child
// machines inherit the parent's.
func (s *Sim) SetFaults(in *faults.Injector) { s.faults = in }

// Faults returns the attached fault injector (nil when none).
func (s *Sim) Faults() *faults.Injector { return s.faults }

// Time returns the charged parallel time: every step's charge, recovery
// charges included, with simultaneous branches counted at their slowest.
func (s *Sim) Time() int64 { return s.time }

// Work returns the charged work: elementary operations summed over all
// processors and branches, recovery re-executions included.
func (s *Sim) Work() int64 { return s.work }

// Reset clears the time and work counters, releases the scratch arena to
// the garbage collector, and shuts down the machine's private pool, if
// any; the pool restarts lazily if the machine is used again. The shared
// default pool is left running for other machines.
func (s *Sim) Reset() {
	s.time, s.work = 0, 0
	s.arena.release()
	if s.ownPool {
		s.pool.Close()
	}
}

// Counters returns the machine's counter site (nil when no observer is
// attached; obs.Counters methods are nil-safe).
func Counters(s *Sim) *obs.Counters { return s.obsC }

// Step is one charged step in flight: Begin opens it, Compute or Dispatch
// runs its processor loop, and End folds its charges into the observer.
type Step struct {
	s     *Sim
	abort func() // drops the step's partial effects before ErrCanceled

	time0, work0 int64 // counters when the step began
	start        time.Time

	n, cost, chunks int
	stalls          int64
}

// Begin opens a charged step on s: it polls the attached context (calling
// abort, when non-nil, and throwing merr.ErrCanceled if it is done),
// numbers the step and opens its span. Every charge made before End lands
// in the step's ChargedTime/ChargedWork.
func Begin(s *Sim, abort func()) Step {
	if s.ctx != nil {
		if cause := s.ctx.Err(); cause != nil {
			if abort != nil {
				abort()
			}
			merr.Throw(merr.Canceled(cause))
		}
	}
	s.stepID++
	st := Step{s: s, abort: abort, time0: s.time, work0: s.work}
	if s.tracer != nil {
		st.start = s.tracer.Begin()
	}
	return st
}

// ID returns the step's number, the key of its injected faults.
func (st *Step) ID() int64 { return st.s.stepID }

// Charge adds time and work to the machine's counters.
func (st *Step) Charge(t, w int64) {
	st.s.time += t
	st.s.work += w
}

// Compute runs a computation step: body on each of n virtual processors,
// each performing cost elementary operations, charged base time and
// cost·n work. An injected step timeout re-executes the whole step and is
// charged again in full, t·base time and t·cost·n work for t timeouts.
func (st *Step) Compute(n, cost int, base int64, body func(p int)) {
	st.Charge(base, int64(cost)*int64(n))
	st.Dispatch(n, cost, body)
	if t := st.s.faults.StepTimeouts(st.s.stepID); t > 0 {
		st.Charge(int64(t)*base, int64(t)*int64(cost)*int64(n))
		st.s.obsC.Add(obs.FaultTimeouts, int64(t))
	}
}

// Dispatch runs body on each of n virtual processors. With no context and
// no injector attached it takes the plain pool.For fast path; otherwise
// the loop is cancellable and suffers injected chunk stalls, each
// recovered by re-executing the chunk and charged cost time and
// cost·min(chunk, n) work. On cancellation the step's partial effects are
// dropped (abort) and merr.ErrCanceled is thrown.
func (st *Step) Dispatch(n, cost int, body func(p int)) {
	s := st.s
	st.n, st.cost = n, cost
	if s.ctx == nil && !s.faults.Enabled() {
		st.chunks = s.pool.For(n, body)
		return
	}
	res, err := s.pool.Run(Loop{
		N: n, Body: body, Ctx: s.ctx, Stall: s.faults.StallFn(s.stepID),
	})
	st.chunks, st.stalls = res.Chunks, res.Stalls
	if err != nil {
		if st.abort != nil {
			st.abort()
		}
		merr.Throw(merr.Canceled(err))
	}
	if res.Stalls > 0 {
		size, _ := ChunkBounds(n)
		size = min(size, n)
		st.Charge(int64(cost)*res.Stalls, int64(cost)*int64(size)*res.Stalls)
	}
}

// End closes the step: it counts the superstep, its charged time and
// work, its pool chunks and stalls at the machine's site, and records its
// span as op.
func (st *Step) End(op string) {
	s := st.s
	if c := s.obsC; c != nil {
		c.Add(obs.Supersteps, 1)
		c.Add(obs.ChargedTime, s.time-st.time0)
		c.Add(obs.ChargedWork, s.work-st.work0)
		c.Add(obs.PoolChunks, int64(st.chunks))
		if st.stalls > 0 {
			c.Add(obs.FaultStalls, st.stalls)
		}
	}
	if s.tracer != nil {
		s.tracer.End(s.site, op, st.start, st.n, st.cost, st.chunks)
	}
}

// Child returns a machine for a branch of parent: a shell recycled from
// parent's arena when one is free, else a new zero T, in both cases with
// zeroed counters and the parent's site, pool, observer handles, context,
// fault injector and arena — so recursive subproblems stay on the
// persistent runtime and in the trace. The caller sets the fields of its
// own machine type.
func Child[T any, M interface {
	*T
	machine
}](parent *Sim) M {
	sub, ok := parent.arena.popShell().(M)
	if !ok {
		sub = M(new(T))
	}
	s := sub.sim()
	s.site = parent.site
	s.time, s.work, s.stepID = 0, 0, 0
	s.pool, s.ownPool = parent.pool, false
	s.obsC, s.tracer = parent.obsC, parent.tracer
	s.ctx, s.faults = parent.ctx, parent.faults
	s.arena = parent.arena
	return sub
}

// ParallelDo composes n independent branches that the simulated machine
// runs simultaneously on disjoint processor groups: branch b runs body on
// child(b). The parent is charged the maximum branch time and the summed
// branch work. Branches execute sequentially in real time, which keeps
// the simulation deterministic; only the accounting is parallel. Each
// finished branch machine returns to the parent's arena for the next
// Child call, unless the body gave it a private pool.
func ParallelDo[M machine](parent *Sim, n int, child func(b int) M, body func(b int, sub M)) {
	var maxTime, sumWork int64
	for b := 0; b < n; b++ {
		sub := child(b)
		body(b, sub)
		s := sub.sim()
		maxTime = max(maxTime, s.time)
		sumWork += s.work
		if !s.ownPool {
			parent.arena.pushShell(sub)
		}
	}
	parent.time += maxTime
	parent.work += sumWork
}

// Recycle calls f, under the arena lock, with s's free list of type L,
// creating an empty one on first use. A machine family keys one list per
// recycled element type; f must only take from or add to the list.
func Recycle[L any](s *Sim, f func(l *L)) {
	ar := s.arena
	ar.mu.Lock()
	defer ar.mu.Unlock()
	key := reflect.TypeFor[L]()
	l, ok := ar.lists[key].(*L)
	if !ok {
		l = new(L)
		ar.lists[key] = l
	}
	f(l)
}

// arena recycles a machine family's scratch storage and child-machine
// shells between steps and between queries: free lists keyed by their
// type, and a stack of finished branch machines. A machine and all its
// children share one arena; Reset releases it.
type arena struct {
	mu     sync.Mutex
	lists  map[reflect.Type]any
	shells []any
}

// maxShells bounds the retained child shells; branch bodies run
// sequentially, so a handful cover any recursion.
const maxShells = 64

func newArena() *arena { return &arena{lists: make(map[reflect.Type]any)} }

// release drops every retained list and shell.
func (ar *arena) release() {
	ar.mu.Lock()
	ar.lists = make(map[reflect.Type]any)
	ar.shells = nil
	ar.mu.Unlock()
}

// popShell takes the most recently retained shell, or returns nil.
func (ar *arena) popShell() any {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	n := len(ar.shells)
	if n == 0 {
		return nil
	}
	sub := ar.shells[n-1]
	ar.shells[n-1] = nil
	ar.shells = ar.shells[:n-1]
	return sub
}

// pushShell retains a finished branch machine for reuse.
func (ar *arena) pushShell(sub any) {
	ar.mu.Lock()
	if len(ar.shells) < maxShells {
		ar.shells = append(ar.shells, sub)
	}
	ar.mu.Unlock()
}
