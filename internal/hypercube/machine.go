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
// Children created by ParallelDo inherit both.
//
// The runtime envelope is exec.Sim, which Machine embeds and shares with
// the PRAM of internal/pram: the time/work counters, the worker pool, the
// observer, the context and fault injector, the scratch arena and
// ParallelDo's branch accounting. A local step is charged and recovered
// by the same rule as a PRAM superstep (exec.Step.Compute); the networks
// add the communication counter, the emulation charges of the CCC and
// shuffle-exchange, and the link-fault protocol.
package hypercube

import (
	"fmt"

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

// Machine simulates a 2^d-processor network of the given kind. The
// runtime envelope it shares with the PRAM (time/work counters, pool,
// observer, context, faults, arena) is the embedded exec.Sim, whose
// methods it promotes; Time counts charged steps (local, communication
// and emulation) and Work local operations.
type Machine struct {
	exec.Sim

	kind Kind
	d    int
	n    int
	comm int64 // values exchanged (communication volume)

	// align is the hypercube dimension currently adjacent to the
	// shuffle-exchange / CCC "active" position; misaligned exchanges pay
	// rotation steps.
	align    int
	hasAlign bool
}

// New returns a machine of the given kind with 2^d processors, running on
// the shared exec.Default worker pool and attached to the process-wide
// observer (obs.Global) if one is installed.
func New(kind Kind, d int) *Machine {
	checkDim(d)
	return &Machine{Sim: exec.NewSim(kind.String()), kind: kind, d: d, n: 1 << d}
}

// checkDim throws merr.ErrDimensionMismatch for a negative dimension.
func checkDim(d int) {
	if d < 0 {
		merr.Throwf(merr.ErrDimensionMismatch, "hypercube: negative dimension %d", d)
	}
}

// child returns a machine of dimension d for a recursive subproblem: the
// parent's kind and runtime envelope (exec.Child), recycled from the
// parent's arena when possible. Vecs created on a finished branch stay
// readable (recycling never touches their cells).
func (m *Machine) child(d int) *Machine {
	checkDim(d)
	sub := exec.Child[Machine](&m.Sim)
	sub.kind, sub.d, sub.n, sub.comm = m.kind, d, 1<<d, 0
	sub.align, sub.hasAlign = 0, false
	return sub
}

// linkFaultCharge simulates the fault-repair protocol of communication
// step st: for every processor's link message the injector decides how
// many deliveries are dropped (receiver timeout) or garbled (checksum
// failure) before the clean one; each failure is retransmitted, charged as
// extra communication volume, and the step's completion is delayed by the
// exponential backoff of its worst link. The delivered values are exact,
// so only the counters move.
func (m *Machine) linkFaultCharge(st *exec.Step) {
	in := m.Faults()
	if !in.Enabled() {
		return
	}
	var extra, dropsTot, garblesTot int64
	maxRetry := 0
	for p := 0; p < m.n; p++ {
		drops, garbles := in.LinkFaults(st.ID(), p)
		dropsTot += int64(drops)
		garblesTot += int64(garbles)
		if r := drops + garbles; r > 0 {
			extra += int64(r)
			maxRetry = max(maxRetry, r)
		}
	}
	m.comm += extra
	st.Charge(faults.BackoffTime(maxRetry), 0)
	if c := exec.Counters(&m.Sim); c != nil && extra > 0 {
		c.Add(obs.FaultDrops, dropsTot)
		c.Add(obs.FaultGarbles, garblesTot)
		// Retransmissions are extra traffic on the same links.
		c.Add(obs.LinkMessages, extra)
		c.Add(obs.LinkBytes, extra*obs.WordBytes)
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

// Comm returns the number of values exchanged across edges.
func (m *Machine) Comm() int64 { return m.comm }

// Reset clears the counters, releases the scratch arena to the garbage
// collector, and shuts down the machine's private pool, if any
// (exec.Sim.Reset).
func (m *Machine) Reset() {
	m.Sim.Reset()
	m.comm = 0
	m.hasAlign = false
}

// Local executes one local superstep: body(p) runs on every processor p,
// touching only processor p's cells. cost is the number of elementary
// operations each processor performs (>= 1); the step is charged cost
// time and cost·2^d work, plus the recoveries of injected stalls and
// timeouts (exec.Step.Compute).
func (m *Machine) Local(cost int, body func(p int)) {
	cost = max(cost, 1)
	st := exec.Begin(&m.Sim, nil)
	st.Compute(m.n, cost, int64(cost), body)
	st.End("local")
}

// beginExchange opens one communication step over dimension dim and
// charges it under the network's emulation model and link-fault protocol;
// the caller moves the data and ends the step.
func (m *Machine) beginExchange(dim int) exec.Step {
	if dim < 0 || dim >= m.d {
		merr.Throwf(merr.ErrDimensionMismatch,
			"hypercube: exchange on dimension %d of a %d-cube", dim, m.d)
	}
	st := exec.Begin(&m.Sim, nil)
	steps := int64(1)
	if m.kind == Shuffle || m.kind == CCC {
		// Rotations needed to bring dim into the exchange position; normal
		// algorithms pay exactly one per step.
		if m.hasAlign {
			fwd := (dim - m.align + m.d) % m.d
			bwd := (m.align - dim + m.d) % m.d
			steps += int64(min(fwd, bwd))
		}
		m.align = dim
		m.hasAlign = true
		if m.kind == CCC {
			steps++ // the cycle hop onto the cube edge
		}
	}
	st.Charge(steps, 0)
	m.comm += int64(m.n)
	if c := exec.Counters(&m.Sim); c != nil {
		c.Add(obs.LinkMessages, int64(m.n))
		c.Add(obs.LinkBytes, int64(m.n)*obs.WordBytes)
	}
	m.linkFaultCharge(&st)
	return st
}

// ParallelDo composes independent sub-computations running simultaneously
// on disjoint processor groups: branch b runs on a child machine of
// dimension dims[b] and the same network kind. The parent is charged the
// maximum branch time and the summed work (exec.ParallelDo) and
// communication, mirroring pram.ParallelDo. Branch data must first be
// routed into position on the parent (charged), after which identifying
// branch processors with a group of parent processors is pure relabelling.
// Equal dimensions split the machine into complete sub-hypercubes, as the
// recursion of Theorem 3.2 requires.
func (m *Machine) ParallelDo(dims []int, body func(b int, sub *Machine)) {
	var sumComm int64
	exec.ParallelDo(&m.Sim, len(dims),
		func(b int) *Machine { return m.child(dims[b]) },
		func(b int, sub *Machine) {
			body(b, sub)
			sumComm += sub.comm
		})
	m.comm += sumComm
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
	st := m.beginExchange(dim)
	out := &Vec[T]{m: m, vals: vecScratch[T](m, m.n, false)} // fully overwritten below
	mask := 1 << dim
	st.Dispatch(m.n, 1, func(p int) {
		out.vals[p] = v.vals[p^mask]
	})
	st.End("exchange")
	return out
}

// CondSwap performs one compare-exchange step across dimension dim:
// neighbours p < q = p XOR 2^dim exchange values, and keep(p, mine, theirs)
// decides what p retains. It is the building block of bitonic sorting. One
// charged step.
func CondSwap[T any](m *Machine, dim int, v *Vec[T], keep func(p int, mine, theirs T) T) {
	st := m.beginExchange(dim)
	mask := 1 << dim
	next := vecScratch[T](m, m.n, false) // fully overwritten below
	st.Dispatch(m.n, 1, func(p int) {
		next[p] = keep(p, v.vals[p], v.vals[p^mask])
	})
	st.End("exchange")
	old := v.vals
	v.vals = next
	putVecScratch(m, old)
}
