// Package hypercube simulates the distributed-memory networks of Section 3
// of the paper: the hypercube itself plus its constant-degree relatives,
// the cube-connected cycles and the shuffle-exchange network.
//
// # Model
//
// A machine has 2^d processors, each with private local memory (the cells
// of Vec values). There is no shared memory: in one communication step
// every processor may exchange one value with its neighbour across a single
// hypercube dimension (Exchange); local computation steps touch only each
// processor's own cells (Local). This matches the paper's input model where
// a processor must receive both v[i] and w[j] before it can evaluate
// a[i,j].
//
// All algorithms in this repository are "normal": each step uses one
// dimension, and consecutive steps use adjacent dimensions. Normal
// algorithms run on the cube-connected cycles and the shuffle-exchange
// network with constant-factor slowdown (Leighton; [LLS89]); the CCC and
// shuffle-exchange machine kinds execute the same data movement while
// charging the emulation cost: a shuffle-exchange exchange on dimension t
// costs one shuffle per dimension of misalignment plus the exchange itself,
// and the CCC charges the cycle rotation that brings the cube edge into
// position. Time counters therefore reproduce the "hypercube, etc." rows
// of Tables 1.1-1.3.
//
// # Robustness
//
// SetContext attaches a context polled at every charged step: cancellation
// throws merr.ErrCanceled, recoverable at the public error-returning APIs,
// and the worker pool drains without executing further chunks. SetFaults
// attaches a faults.Injector (the environment-configured faults.Global by
// default): local steps suffer recoverable chunk stalls and superstep
// timeouts, and every Exchange/CondSwap suffers per-link message drops and
// garbles that the simulated protocol detects (receiver timeout / checksum)
// and repairs by retransmission with exponential backoff. Recoveries are
// charged to the time and communication counters — the step completes when
// its slowest link completes — while the delivered data is exact, so all
// algorithms return identical index vectors under any fault schedule.
// Children created by Subcubes and ParallelDo inherit both.
package hypercube

import (
	"context"
	"fmt"
	"time"

	"monge/internal/exec"
	"monge/internal/faults"
	"monge/internal/merr"
	"monge/internal/obs"
)

// Kind selects the interconnection network being simulated.
type Kind int

const (
	// Cube is the binary hypercube: 2^d nodes, d neighbours each.
	Cube Kind = iota
	// CCC is the cube-connected cycles network: each hypercube node is a
	// d-cycle; normal algorithms run with constant slowdown.
	CCC
	// Shuffle is the shuffle-exchange network: exchange edges plus the
	// perfect-shuffle permutation; normal algorithms run with constant
	// slowdown.
	Shuffle
)

// String names the network kind.
func (k Kind) String() string {
	switch k {
	case Cube:
		return "hypercube"
	case CCC:
		return "cube-connected-cycles"
	case Shuffle:
		return "shuffle-exchange"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Machine simulates a 2^d-processor network of the given kind.
type Machine struct {
	kind Kind
	d    int
	n    int

	time  int64 // charged step count (local + communication + emulation)
	comm  int64 // values exchanged (communication volume)
	local int64 // local operation count (work)

	// align is the hypercube dimension currently adjacent to the
	// shuffle-exchange / CCC "active" position; misaligned exchanges pay
	// rotation steps.
	align    int
	hasAlign bool

	// pool executes the per-processor loops of every step; ownPool marks a
	// private pool installed by SetWorkers, which Reset shuts down. Child
	// machines created by Subcubes and ParallelDo inherit the pool.
	pool    *exec.Pool
	ownPool bool
	// obsC and tracer are the observability handles (nil when the layer
	// is off): obsC is the counter site named after the network kind,
	// tracer records one wall-clock span per charged step. Captured from
	// obs.Global at creation; children inherit both.
	obsC   *obs.Counters
	tracer *obs.Tracer

	// stepID numbers the charged steps for the fault injector's hash keys.
	stepID int64
	// ctx, when non-nil, is polled at step boundaries; cancellation throws
	// merr.ErrCanceled. faults, when enabled, injects stalls, timeouts, and
	// link faults. Children inherit both.
	ctx    context.Context
	faults *faults.Injector

	// arena recycles Vec storage and child shells (see arena.go); children
	// share the parent's, Reset releases it.
	arena *vecArena
}

// New returns a machine of the given kind with 2^d processors, running on
// the shared exec.Default worker pool and attached to the process-wide
// observer (obs.Global) if one is installed.
func New(kind Kind, d int) *Machine {
	if d < 0 {
		merr.Throwf(merr.ErrDimensionMismatch, "hypercube: negative dimension %d", d)
	}
	m := &Machine{
		kind: kind, d: d, n: 1 << d,
		pool: exec.Default(), faults: faults.Global(),
		arena: newVecArena(),
	}
	if o := obs.Global(); o != nil {
		m.obsC = o.Site(kind.String())
		m.tracer = o.Tracer()
	}
	return m
}

// child returns a machine for a recursive subproblem: the given kind and
// dimension with the parent's pool and observer handles, keeping
// recursion on the persistent runtime and in the trace. The shell is recycled from the
// parent's arena when possible; Subcubes/ParallelDo return it via
// releaseChild once the branch accounting is harvested.
func (m *Machine) child(kind Kind, d int) *Machine {
	if ar := m.arena; ar != nil && d >= 0 {
		if sub := ar.getMachine(); sub != nil {
			sub.kind = kind
			sub.d, sub.n = d, 1<<d
			sub.time, sub.comm, sub.local, sub.stepID = 0, 0, 0, 0
			sub.align, sub.hasAlign = 0, false
			sub.pool, sub.ownPool = m.pool, false
			sub.obsC, sub.tracer = m.obsC, m.tracer
			sub.ctx, sub.faults = m.ctx, m.faults
			sub.arena = ar
			return sub
		}
	}
	sub := New(kind, d)
	sub.pool = m.pool
	sub.obsC = m.obsC
	sub.tracer = m.tracer
	sub.ctx = m.ctx
	sub.faults = m.faults
	sub.arena = m.arena
	return sub
}

// releaseChild retains a finished branch machine for reuse. Vecs created
// on the branch stay readable (recycling never touches their cells).
func (m *Machine) releaseChild(sub *Machine) {
	if m.arena != nil && !sub.ownPool {
		m.arena.putMachine(sub)
	}
}

// SetWorkers installs a private worker pool with the given worker count,
// replacing the shared default. Outputs and charged costs are identical
// for any value (the runtime's chunking contract); the knob exists for
// determinism and overhead experiments. A previous private pool is shut
// down.
func (m *Machine) SetWorkers(w int) {
	if m.ownPool {
		m.pool.Close()
	}
	m.pool = exec.NewPool(w)
	m.ownPool = true
}

// Workers returns the worker count of the machine's pool.
func (m *Machine) Workers() int { return m.pool.Workers() }

// SetObserver attaches the machine to an observability layer: the
// counter site named after its network kind and, if tracing is enabled
// on o, the span tracer (nil detaches both). Children inherit the
// handles.
func (m *Machine) SetObserver(o *obs.Observer) {
	m.obsC = o.Site(m.kind.String())
	m.tracer = o.Tracer()
}

// TraceSpan opens a driver-level span (an algorithm phase such as
// "RowMinima") on the machine's tracer and returns its closer; callers
// use `defer mach.TraceSpan("hcmonge", "RowMinima")()`. A no-op closure
// is returned when tracing is off.
func (m *Machine) TraceSpan(site, name string) func() {
	tr := m.tracer
	if tr == nil {
		return func() {}
	}
	t0 := tr.Begin()
	return func() { tr.End(site, name, t0, 0, 0, 0) }
}

// SetContext attaches a context polled at every charged step: once it is
// cancelled the next step throws merr.ErrCanceled (also matching the
// context's own error), which the public error-returning APIs recover. Nil
// detaches. Subcubes and ParallelDo children inherit it.
func (m *Machine) SetContext(ctx context.Context) { m.ctx = ctx }

// Context returns the attached context (nil when none).
func (m *Machine) Context() context.Context { return m.ctx }

// SetFaults attaches a fault injector (nil disables injection). Machines
// start with the environment-configured faults.Global injector; children
// inherit the parent's.
func (m *Machine) SetFaults(in *faults.Injector) { m.faults = in }

// Faults returns the attached fault injector (nil when none).
func (m *Machine) Faults() *faults.Injector { return m.faults }

// checkCtx throws merr.ErrCanceled if the attached context is done.
func (m *Machine) checkCtx() {
	if m.ctx != nil {
		if cause := m.ctx.Err(); cause != nil {
			merr.Throw(merr.Canceled(cause))
		}
	}
}

// dispatch runs one charged per-processor loop, taking the plain fast path
// when no context or injector is attached and the cancellable, stall-aware
// pool path otherwise. Stall recoveries re-execute one chunk each and are
// charged accordingly.
func (m *Machine) dispatch(n int, body func(p int)) int {
	if m.ctx == nil && !m.faults.Enabled() {
		return m.pool.For(n, body)
	}
	res, err := m.pool.Run(exec.Loop{
		N: n, Body: body, Ctx: m.ctx, Stall: m.faults.StallFn(m.stepID),
	})
	if err != nil {
		merr.Throw(merr.Canceled(err))
	}
	if res.Stalls > 0 {
		size, _ := exec.ChunkBounds(n)
		if size > n {
			size = n
		}
		m.time += res.Stalls
		m.local += int64(size) * res.Stalls
		m.obsC.Add(obs.FaultStalls, res.Stalls)
	}
	return res.Chunks
}

// linkFaultCharge simulates the fault-repair protocol of one communication
// step: for every processor's link message the injector decides how many
// deliveries are dropped (receiver timeout) or garbled (checksum failure)
// before the clean one; each failure is retransmitted, charged as extra
// communication volume, and the step's completion is delayed by the
// exponential backoff of its worst link. The delivered values are exact,
// so only the counters move.
func (m *Machine) linkFaultCharge() {
	if !m.faults.Enabled() {
		return
	}
	var extra, dropsTot, garblesTot int64
	maxRetry := 0
	for p := 0; p < m.n; p++ {
		drops, garbles := m.faults.LinkFaults(m.stepID, p)
		dropsTot += int64(drops)
		garblesTot += int64(garbles)
		if r := drops + garbles; r > 0 {
			extra += int64(r)
			if r > maxRetry {
				maxRetry = r
			}
		}
	}
	m.comm += extra
	m.time += faults.BackoffTime(maxRetry)
	if c := m.obsC; c != nil && extra > 0 {
		c.Add(obs.FaultDrops, dropsTot)
		c.Add(obs.FaultGarbles, garblesTot)
		// Retransmissions are extra traffic on the same links.
		c.Add(obs.LinkMessages, extra)
		c.Add(obs.LinkBytes, extra*obs.WordBytes)
	}
}

// beginStep snapshots the charged counters and opens a wall-clock span
// for one charged step; finishStep folds both into the observer. Every charge between the two calls — emulation rotations,
// stall recoveries, timeout re-runs, link backoff — lands in the step's
// ChargedTime/ChargedWork delta.
func (m *Machine) beginStep() (timeBefore, workBefore int64, spanStart time.Time) {
	if m.tracer != nil {
		spanStart = m.tracer.Begin()
	}
	return m.time, m.local, spanStart
}

func (m *Machine) finishStep(op string, n, cost, chunks int, timeBefore, workBefore int64, spanStart time.Time) {
	if c := m.obsC; c != nil {
		c.Add(obs.Supersteps, 1)
		c.Add(obs.ChargedTime, m.time-timeBefore)
		c.Add(obs.ChargedWork, m.local-workBefore)
		c.Add(obs.PoolChunks, int64(chunks))
	}
	if m.tracer != nil {
		m.tracer.End(m.kind.String(), op, spanStart, n, cost, chunks)
	}
}

// NewCube returns a hypercube with 2^d processors.
func NewCube(d int) *Machine { return New(Cube, d) }

// Kind returns the machine's network kind.
func (m *Machine) Kind() Kind { return m.kind }

// Dim returns d, the hypercube dimension.
func (m *Machine) Dim() int { return m.d }

// Size returns 2^d, the processor count.
func (m *Machine) Size() int { return m.n }

// Time returns the charged parallel step count.
func (m *Machine) Time() int64 { return m.time }

// Comm returns the number of values exchanged across edges.
func (m *Machine) Comm() int64 { return m.comm }

// Work returns the total local-operation count.
func (m *Machine) Work() int64 { return m.local }

// Reset clears the counters, releases the scratch arena to the garbage
// collector, and shuts down the machine's private pool, if any (it
// restarts lazily on the next step; the shared default pool is left
// running for other machines).
func (m *Machine) Reset() {
	m.time, m.comm, m.local = 0, 0, 0
	m.hasAlign = false
	if m.arena != nil {
		m.arena.release()
	}
	if m.ownPool {
		m.pool.Close()
	}
}

// Local executes one local superstep: body(p) runs on every processor p,
// touching only processor p's cells. cost is the number of elementary
// operations each processor performs (>= 1).
func (m *Machine) Local(cost int, body func(p int)) {
	if cost < 1 {
		cost = 1
	}
	m.checkCtx()
	m.stepID++
	timeBefore, workBefore, spanStart := m.beginStep()
	m.time += int64(cost)
	m.local += int64(cost) * int64(m.n)
	chunks := m.dispatch(m.n, body)
	if t := m.faults.StepTimeouts(m.stepID); t > 0 {
		m.time += int64(t) * int64(cost)
		m.local += int64(t) * int64(cost) * int64(m.n)
		m.obsC.Add(obs.FaultTimeouts, int64(t))
	}
	m.finishStep("local", m.n, cost, chunks, timeBefore, workBefore, spanStart)
}

// exchangeCharge accounts for one exchange over dimension dim under the
// network's emulation model and returns nothing; the caller moves the data.
func (m *Machine) exchangeCharge(dim int) {
	if dim < 0 || dim >= m.d {
		merr.Throwf(merr.ErrDimensionMismatch,
			"hypercube: exchange on dimension %d of a %d-cube", dim, m.d)
	}
	m.checkCtx()
	m.stepID++
	switch m.kind {
	case Cube:
		m.time++
	case Shuffle, CCC:
		// Rotations needed to bring dim into the exchange position; normal
		// algorithms pay exactly one per step.
		rot := 0
		if m.hasAlign {
			fwd := (dim - m.align + m.d) % m.d
			bwd := (m.align - dim + m.d) % m.d
			rot = fwd
			if bwd < rot {
				rot = bwd
			}
		}
		m.align = dim
		m.hasAlign = true
		m.time += int64(rot) + 1
		if m.kind == CCC {
			m.time++ // the cycle hop onto the cube edge
		}
	}
	m.comm += int64(m.n)
	if c := m.obsC; c != nil {
		c.Add(obs.LinkMessages, int64(m.n))
		c.Add(obs.LinkBytes, int64(m.n)*obs.WordBytes)
	}
	m.linkFaultCharge()
}

// Subcubes partitions the machine into 2^k complete sub-hypercubes of
// dimension d-k (fixing the high k address bits) and runs body on each; the
// parent is charged the maximum child time (the subcubes operate
// simultaneously) and the summed work. Subcube c comprises parent
// processors c*2^(d-k) .. (c+1)*2^(d-k)-1; the body addresses them by their
// low d-k bits. This realises the paper's requirement that recursive
// subproblems be assigned to complete sub-hypercubes (Theorem 3.2).
func (m *Machine) Subcubes(k int, body func(c int, sub *Machine)) {
	if k < 0 || k > m.d {
		merr.Throwf(merr.ErrDimensionMismatch, "hypercube: Subcubes(%d) of a %d-cube", k, m.d)
	}
	var maxTime int64
	var sumComm, sumLocal int64
	for c := 0; c < 1<<k; c++ {
		sub := m.child(m.kind, m.d-k)
		body(c, sub)
		if sub.time > maxTime {
			maxTime = sub.time
		}
		sumComm += sub.comm
		sumLocal += sub.local
		m.releaseChild(sub)
	}
	m.time += maxTime
	m.comm += sumComm
	m.local += sumLocal
}

// ParallelDo composes independent sub-computations running simultaneously
// on disjoint processor groups: branch b runs on a fresh machine of
// dimension dims[b] and the same network kind. The parent is charged the
// maximum branch time and the summed work and communication, mirroring
// pram.ParallelDo. Branch data must first be routed into position on the
// parent (charged), after which identifying branch processors with a group
// of parent processors is pure relabelling.
func (m *Machine) ParallelDo(dims []int, body func(b int, sub *Machine)) {
	var maxTime, sumComm, sumLocal int64
	for b := range dims {
		sub := m.child(m.kind, dims[b])
		body(b, sub)
		if sub.time > maxTime {
			maxTime = sub.time
		}
		sumComm += sub.comm
		sumLocal += sub.local
		m.releaseChild(sub)
	}
	m.time += maxTime
	m.comm += sumComm
	m.local += sumLocal
}

// Vec is one local memory cell per processor.
type Vec[T any] struct {
	m    *Machine
	vals []T
}

// NewVec allocates a cell on every processor, initialised by init (nil
// gives zero values). Initialisation is input placement and costs nothing.
// Storage is recycled from the machine's arena when a freed Vec of the
// same element type fits.
func NewVec[T any](m *Machine, init func(p int) T) *Vec[T] {
	v := &Vec[T]{m: m, vals: vecScratch[T](m, m.n, init == nil)}
	if init != nil {
		for p := range v.vals {
			v.vals[p] = init(p)
		}
	}
	return v
}

// Get returns processor p's cell. Algorithm bodies must call it only with
// their own processor index (local memory!); cross-processor reads must go
// through Exchange.
func (v *Vec[T]) Get(p int) T { return v.vals[p] }

// Set assigns processor p's cell, with the same locality obligation.
func (v *Vec[T]) Set(p int, x T) { v.vals[p] = x }

// Snapshot copies all cells out (verification only).
func (v *Vec[T]) Snapshot() []T {
	out := make([]T, len(v.vals))
	copy(out, v.vals)
	return out
}

// Exchange performs one communication step across dimension dim: it
// returns a fresh Vec holding, at each processor p, the value the
// neighbour p XOR 2^dim held in v. One charged step (plus emulation
// overhead on CCC / shuffle-exchange).
func Exchange[T any](m *Machine, dim int, v *Vec[T]) *Vec[T] {
	timeBefore, workBefore, spanStart := m.beginStep()
	m.exchangeCharge(dim)
	out := &Vec[T]{m: m, vals: vecScratch[T](m, m.n, false)} // fully overwritten below
	mask := 1 << dim
	chunks := m.dispatch(m.n, func(p int) {
		out.vals[p] = v.vals[p^mask]
	})
	m.finishStep("exchange", m.n, 1, chunks, timeBefore, workBefore, spanStart)
	return out
}

// CondSwap performs one compare-exchange step across dimension dim:
// neighbours p < q = p XOR 2^dim exchange values, and keep(p, mine, theirs)
// decides what p retains. It is the building block of bitonic sorting. One
// charged step.
func CondSwap[T any](m *Machine, dim int, v *Vec[T], keep func(p int, mine, theirs T) T) {
	timeBefore, workBefore, spanStart := m.beginStep()
	m.exchangeCharge(dim)
	mask := 1 << dim
	next := vecScratch[T](m, m.n, false) // fully overwritten below
	chunks := m.dispatch(m.n, func(p int) {
		next[p] = keep(p, v.vals[p], v.vals[p^mask])
	})
	m.finishStep("exchange", m.n, 1, chunks, timeBefore, workBefore, spanStart)
	old := v.vals
	v.vals = next
	putVecScratch(m, old)
}
