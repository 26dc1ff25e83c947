// Package batch amortizes simulated-machine construction across the
// query stream of one serving worker. A fresh machine pays its warm-up
// allocations (write-buffer shards, scratch arrays, child-machine
// shells) on its first query. A facade caller avoids that by keeping
// its *PRAM across calls; a serving worker sees queries of many shapes,
// so a Driver keeps one machine per shape class (one per distinct
// processor count) and routes every query of that shape through it. The
// per-machine arenas (see internal/pram) reach steady state once and
// every later query of the same shape runs essentially allocation-free.
//
// A Driver is NOT goroutine-safe: queries share machines and their
// arenas. The serving layer (internal/serve) gets concurrency by giving
// each worker goroutine a private Driver and sharding the query stream
// across them. Driver answers are index-exact with one-query-per-machine
// facade calls — the fuzz and table tests in this package and in the
// root package are the guard.
//
// A Driver also chooses the execution Backend: BackendPRAM routes
// queries through the simulated machines above, BackendNative through
// the direct goroutine kernels of internal/native. Answers are
// index-exact across backends (the differential suites enforce it);
// what changes is cost — native queries charge no simulated supersteps
// and see no injected machine faults, which is why the conformance CI
// job injects faults on the PRAM side only.
package batch

import (
	"context"

	"monge/internal/core"
	"monge/internal/exec"
	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/native"
	"monge/internal/pram"
)

// Backend selects the execution engine a Driver routes queries to.
type Backend int

const (
	// BackendPRAM answers queries on the simulated PRAM machines — the
	// paper's machine models, with charged supersteps, simulated shared
	// memory, and fault injection. This is the default and the
	// conformance oracle.
	BackendPRAM Backend = iota
	// BackendNative answers queries directly on goroutines via
	// internal/native: no simulation, index-exact with BackendPRAM by
	// the differential test suites.
	BackendNative
)

// String names the backend ("pram" or "native"), as subtest and
// benchmark names spell it.
func (b Backend) String() string {
	if b == BackendNative {
		return "native"
	}
	return "pram"
}

// Driver runs searching queries on recycled per-shape machines.
type Driver struct {
	mode    pram.Mode
	backend Backend
	ctx     context.Context
	// injector/haveInjector distinguish "never set" (machines keep the
	// process-wide faults.Global default that pram.New attaches) from an
	// explicit SetFaults(nil), which disables injection.
	injector     *faults.Injector
	haveInjector bool
	// machineWorkers, when positive, gives every machine a private
	// worker pool of that size instead of the shared exec.Default pool.
	// A native driver sizes the pool Fanout reports by the same knob.
	machineWorkers int
	machines       map[int]*pram.Machine // keyed by normalized processor count
	// npool is the native backend's lazily created private Fanout pool
	// (only when machineWorkers is set; otherwise Fanout reports
	// exec.Default, mirroring the machines' pool inheritance).
	npool *exec.Pool
}

// New returns a Driver whose machines use the given PRAM mode. Close
// releases the retained machines' arenas when the batch is done.
func New(mode pram.Mode) *Driver {
	return &Driver{mode: mode}
}

// NewWithBackend returns a Driver routing queries to the given backend.
// The PRAM mode still names the conformance oracle's machine model (and
// is what a native driver reports in QueryStats shape classes); a native
// driver touches no simulated machine unless a PRAM-only entry point
// (Machine, QueryStats' snapshot) asks for one.
func NewWithBackend(mode pram.Mode, be Backend) *Driver {
	return &Driver{mode: mode, backend: be}
}

// Backend reports which execution engine the driver routes queries to.
func (d *Driver) Backend() Backend { return d.backend }

// SetContext attaches ctx to every machine the driver holds or later
// creates; a cancelled context aborts the current query at its next
// superstep with merr.ErrCanceled.
func (d *Driver) SetContext(ctx context.Context) {
	d.ctx = ctx
	for _, m := range d.machines {
		m.SetContext(ctx)
	}
}

// SetFaults attaches the fault injector to every machine the driver
// holds or later creates (nil disables injection). Drivers that never
// call SetFaults keep the machines' default, the process-wide
// faults.Global injector — the passthrough the serving layer relies on.
// The native backend has no simulated processors to fault, so a native
// driver accepts but never consults the injector.
func (d *Driver) SetFaults(in *faults.Injector) {
	d.injector, d.haveInjector = in, true
	for _, m := range d.machines {
		m.SetFaults(in)
	}
}

// SetMachineWorkers gives every retained and future machine a private
// worker pool of w workers (w < 1 is clamped to 1; a one-worker pool
// runs supersteps inline on the querying goroutine). The shared
// exec.Default pool is the right runtime for a lone driver; private
// single-worker pools are the right one when many drivers serve
// concurrently and each should stay on its own core instead of
// contending for the shared pool's workers. Charged costs and results
// are identical either way (the runtime's chunking contract). On a
// native driver w sizes only the pool Fanout reports: the native
// kernels themselves always run inline on the querying goroutine.
func (d *Driver) SetMachineWorkers(w int) {
	if w < 1 {
		w = 1
	}
	d.machineWorkers = w
	for _, m := range d.machines {
		m.SetWorkers(w)
	}
	if d.npool != nil {
		d.npool.Close()
		d.npool = nil // recreated lazily at the new width
	}
}

// Fanout reports the pool a caller may split work across above the
// query level (the min-plus engine's output-row blocks), and the
// context SetContext attached (nil if none). On a native driver the
// pool is a private pool of the SetMachineWorkers width (created
// lazily, so serve shards with width 1 never spawn a worker), otherwise
// the shared exec.Default pool. The pool is nil on the PRAM backend,
// whose queries run on the simulated machines.
func (d *Driver) Fanout() (*exec.Pool, context.Context) {
	if d.backend != BackendNative {
		return nil, d.ctx
	}
	if d.machineWorkers <= 0 {
		return exec.Default(), d.ctx
	}
	if d.npool == nil {
		d.npool = exec.NewPool(d.machineWorkers)
	}
	return d.npool, d.ctx
}

// checkRowQuery rejects degenerate row-query shapes at the driver seam,
// so both backends fail m=0 / n=0 inputs with the same typed error
// instead of backend-dependent silent answers (the PRAM core used to
// return all-zero indices for n=0).
func checkRowQuery(a marray.Matrix) {
	if a.Rows() <= 0 || a.Cols() <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"batch: %dx%d row query; both dimensions must be positive", a.Rows(), a.Cols())
	}
}

// checkTubeQuery is checkRowQuery for composite tube queries.
func checkTubeQuery(c marray.Composite) {
	if c.P() <= 0 || c.Q() <= 0 || c.R() <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"batch: %dx%dx%d tube query; all dimensions must be positive", c.P(), c.Q(), c.R())
	}
}

// NormProcs returns the processor count a query's declared count is
// normalized to: counts below 1 are served by the 1-processor shape
// class, exactly as pram.New would clamp them. Shape-class keys, the
// Machine accessor, and QueryStats all agree on this normalization.
func NormProcs(procs int) int {
	if procs < 1 {
		return 1
	}
	return procs
}

// machineFor returns the retained machine for the shape class of procs
// declared processors, creating it on first use.
func (d *Driver) machineFor(procs int) *pram.Machine {
	procs = NormProcs(procs)
	if m, ok := d.machines[procs]; ok {
		return m
	}
	m := pram.New(d.mode, procs)
	if d.ctx != nil {
		m.SetContext(d.ctx)
	}
	if d.haveInjector {
		m.SetFaults(d.injector)
	}
	if d.machineWorkers > 0 {
		m.SetWorkers(d.machineWorkers)
	}
	if d.machines == nil {
		d.machines = make(map[int]*pram.Machine)
	}
	d.machines[procs] = m
	return m
}

// Machine exposes the retained machine for a shape class (procs as sized
// by the driver: Cols(a) for row queries, 2*q*r for tube queries), for
// counter inspection in tests and benchmarks. The count is normalized
// exactly as machineFor normalizes it, so Machine(0) and Machine(1) name
// the same shape class. Returns nil before the first query of that shape.
func (d *Driver) Machine(procs int) *pram.Machine { return d.machines[NormProcs(procs)] }

// QueryStats is the charged cost one query added to its shape-class
// machine: the per-query diff of the cumulative Machine counters.
type QueryStats struct {
	Procs int // normalized processor count of the shape class
	Steps int64
	Time  int64
	Work  int64
}

// QueryStats runs query and returns the simulated cost it charged to the
// shape class of procs declared processors (Cols(a) for row queries,
// 2*q*r for tube queries — the counts the driver itself uses). The
// machine counters are cumulative across a driver's queries; this helper
// is the per-query view, diffing Time/Work/Steps around the call.
// Queries routed to a different shape class inside query are not
// included in the diff. On the native backend there is no machine and no
// charged cost: query still runs, and the stats carry the normalized
// shape class with zero Steps/Time/Work (simulation cost is a property
// of the simulated model, not of native execution).
func (d *Driver) QueryStats(procs int, query func()) QueryStats {
	if d.backend == BackendNative {
		query()
		return QueryStats{Procs: NormProcs(procs)}
	}
	m := d.machineFor(procs)
	before := m.CostSnapshot()
	query()
	delta := m.CostSnapshot().Sub(before)
	return QueryStats{Procs: m.Procs(), Steps: delta.Steps, Time: delta.Time, Work: delta.Work}
}

// RowMinima computes the leftmost row minima of the Monge array a on the
// machine retained for a's shape class (or natively, index-exact, on a
// native driver).
func (d *Driver) RowMinima(a marray.Matrix) []int {
	checkRowQuery(a)
	if d.backend == BackendNative {
		return native.RowMinima(d.ctx, a)
	}
	return core.RowMinima(d.machineFor(a.Cols()), a)
}

// RowMinimaInto is RowMinima writing into a caller-provided slice of
// length >= a.Rows(). On the native backend the call allocates nothing;
// on the PRAM backend the simulated machine's answer is copied into out,
// so streaming callers (the min-plus multiplication engine issues one
// same-shape query per output row) keep a single answer buffer either
// way.
func (d *Driver) RowMinimaInto(a marray.Matrix, out []int) {
	checkRowQuery(a)
	checkOut(a, out)
	if d.backend == BackendNative {
		native.RowMinimaInto(d.ctx, a, out)
		return
	}
	copy(out, core.RowMinima(d.machineFor(a.Cols()), a))
}

// StaircaseRowMinimaInto is StaircaseRowMinima writing into a
// caller-provided slice of length >= a.Rows().
func (d *Driver) StaircaseRowMinimaInto(a marray.Matrix, out []int) {
	checkRowQuery(a)
	checkOut(a, out)
	if d.backend == BackendNative {
		native.StaircaseRowMinimaInto(d.ctx, a, out)
		return
	}
	copy(out, core.StaircaseRowMinima(d.machineFor(a.Cols()), a))
}

// checkOut rejects an answer slice shorter than the query's row count,
// so both backends fail with the same typed error instead of a native
// bounds panic or a silent PRAM-side truncation.
func checkOut(a marray.Matrix, out []int) {
	if len(out) < a.Rows() {
		merr.Throwf(merr.ErrDimensionMismatch,
			"batch: answer slice holds %d rows, query has %d", len(out), a.Rows())
	}
}

// StaircaseRowMinima computes the leftmost finite row minima of the
// staircase-Monge array a (Theorem 2.3) on the machine retained for a's
// shape class.
func (d *Driver) StaircaseRowMinima(a marray.Matrix) []int {
	checkRowQuery(a)
	if d.backend == BackendNative {
		return native.StaircaseRowMinima(d.ctx, a)
	}
	return core.StaircaseRowMinima(d.machineFor(a.Cols()), a)
}

// TubeMaxima solves the tube-maxima problem for the Monge-composite
// array c on the machine retained for c's shape class.
func (d *Driver) TubeMaxima(c marray.Composite) ([][]int, [][]float64) {
	checkTubeQuery(c)
	if d.backend == BackendNative {
		return native.TubeMaxima(d.ctx, c)
	}
	return core.TubeMaxima(d.machineFor(2*c.Q()*c.R()), c)
}

// Close resets every retained machine, releasing the scratch arenas and
// any machine-private pools, and stops a native driver's private Fanout
// pool. Close is idempotent; the Driver is reusable after it — the next
// query rebuilds its machine or pool.
func (d *Driver) Close() {
	for _, m := range d.machines {
		m.Reset()
	}
	d.machines = nil
	if d.npool != nil {
		d.npool.Close()
		d.npool = nil
	}
}
