// Package monge is a Go library reproducing "Parallel Searching in
// Generalized Monge Arrays with Applications" (Aggarwal, Kravets, Park,
// Sen; SPAA 1990): sequential and parallel searching in Monge,
// staircase-Monge, and Monge-composite arrays, the parallel-machine
// substrates the paper evaluates on (CRCW/CREW PRAM, hypercube,
// cube-connected cycles, shuffle-exchange), and the paper's applications
// (geometric neighbor problems, rectangle problems, string editing, and
// Monge-powered dynamic programming).
//
// # Arrays
//
// Arrays are accessed through the Matrix interface with O(1) on-demand
// entry evaluation; see NewFunc, FromRows and the adapters (Transpose,
// Negate, ReverseCols). An m x n array A is Monge when
// A[i,j] + A[k,l] <= A[i,l] + A[k,j] for all i<k, j<l; staircase-Monge
// arrays additionally carry +Inf entries closed to the right and downward.
//
// # Searching
//
//	idx, err := RowMinima(a)          // SMAWK: leftmost row minima of a Monge array, Theta(m+n)
//	idx, err = RowMaxima(a)           // leftmost row maxima of an inverse-Monge array
//	idx, err = StaircaseRowMinima(a)  // leftmost finite row minima of a staircase-Monge array
//	tub, _, err := TubeMaxima(c)      // per-(i,k) best middle coordinate of a Monge-composite array
//
// The error-returning entry points screen their input with cheap sampled
// structural validators and return typed errors (ErrNotMonge,
// ErrDimensionMismatch, ...; match with errors.Is). The Must* variants
// (MustRowMinima etc.) skip validation and panic with the typed error on
// conditions detected during the computation — the zero-overhead form for
// inputs that are Monge by construction.
//
// Parallel counterparts run on simulated machines:
//
//	mach := NewPRAM(CRCW, n)
//	idx, err := RowMinimaPRAM(mach, a)         // O(lg n) charged time, Table 1.1
//	idx, err = StaircaseRowMinimaPRAM(mach, a) // Theorem 2.3, Table 1.2
//
// and on distributed-memory networks (hypercube, CCC, shuffle-exchange)
// via the hcmonge subpackage-backed entry points RowMinimaHypercube etc.
// (Theorems 3.2-3.4, Tables 1.1-1.3 "hypercube, etc." rows).
//
// The machines expose Time, Work, and communication counters; those
// counters are what the repository's benchmark harness compares against
// the paper's complexity tables (see EXPERIMENTS.md). They also carry the
// robustness hooks of this repository's runtime: SetContext attaches a
// context that cancels a long simulation at the next superstep (the entry
// point returns ErrCanceled), and SetFaults attaches a deterministic fault
// injector under which every algorithm still returns index-exact results
// (see the faults package and README's "Fault model & error contract").
package monge

import (
	"context"

	"monge/internal/admit"
	"monge/internal/batch"
	"monge/internal/core"
	"monge/internal/hcmonge"
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/mindex"
	"monge/internal/minplus"
	"monge/internal/pram"
	"monge/internal/serve"
	"monge/internal/smawk"
)

// Matrix is a read-only two-dimensional array with O(1) entry access.
type Matrix = marray.Matrix

// Staircase is a Matrix with an explicit blocked-column boundary per row.
type Staircase = marray.Staircase

// Dense is a materialized matrix.
type Dense = marray.Dense

// Composite is a p x q x r Monge-composite array c[i,j,k] = d[i,j]+e[j,k].
type Composite = marray.Composite

// Point is a planar point used by the geometric applications.
type Point = marray.Point

// NewFunc wraps an entry function as an implicit m x n Matrix.
func NewFunc(m, n int, f func(i, j int) float64) Matrix {
	return marray.Func{M: m, N: n, F: f}
}

// NewStair wraps an entry function and a per-row blocked boundary as an
// implicit staircase matrix (+Inf at and beyond the boundary).
func NewStair(m, n int, f func(i, j int) float64, bound func(i int) int) Staircase {
	return marray.StairFunc{M: m, N: n, F: f, Bound: bound}
}

// FromRows builds a Dense matrix from row slices.
func FromRows(rows [][]float64) *Dense { return marray.FromRows(rows) }

// NewComposite wraps the two factor matrices, checking that D's column
// count matches E's row count (ErrDimensionMismatch otherwise).
func NewComposite(d, e Matrix) (Composite, error) {
	var c Composite
	err := catchInto(func() { c = marray.NewComposite(d, e) })
	return c, err
}

// MustNewComposite is NewComposite panicking with the typed error on a
// dimension mismatch.
func MustNewComposite(d, e Matrix) Composite { return marray.NewComposite(d, e) }

// IsMonge reports whether a satisfies the Monge inequality.
func IsMonge(a Matrix) bool { return marray.IsMonge(a) }

// IsInverseMonge reports whether a satisfies the inverse-Monge inequality.
func IsInverseMonge(a Matrix) bool { return marray.IsInverseMonge(a) }

// IsStaircaseMonge reports whether a is staircase-Monge.
func IsStaircaseMonge(a Matrix) bool { return marray.IsStaircaseMonge(a) }

// CheckMonge verifies the Monge inequality on every adjacent 2x2 minor in
// O(m*n) and returns an error matching ErrNotMonge naming the first
// violated minor.
func CheckMonge(a Matrix) error { return marray.CheckMonge(a) }

// CheckInverseMonge is CheckMonge for the reversed inequality
// (ErrNotInverseMonge).
func CheckInverseMonge(a Matrix) error { return marray.CheckInverseMonge(a) }

// CheckStaircaseMonge verifies the staircase pattern (ErrNotStaircase) and
// the Monge inequality on finite adjacent minors (ErrNotMonge) in O(m*n).
func CheckStaircaseMonge(a Matrix) error { return marray.CheckStaircaseMonge(a) }

// catchInto runs f, converting a thrown merr failure into a returned
// error; it is the bridge between the internal panic transport and the
// public error-returning API.
func catchInto(f func()) (err error) {
	defer merr.Catch(&err)
	f()
	return nil
}

// Transpose returns the transposed view (Monge-ness is preserved).
func Transpose(a Matrix) Matrix { return marray.Transpose(a) }

// Negate returns the negated view (exchanges Monge and inverse-Monge, and
// the row-minima and row-maxima problems).
func Negate(a Matrix) Matrix { return marray.Negate(a) }

// ReverseCols returns the column-reversed view (exchanges Monge and
// inverse-Monge).
func ReverseCols(a Matrix) Matrix { return marray.ReverseCols(a) }

// ReverseRows returns the row-reversed view (exchanges Monge and
// inverse-Monge).
func ReverseRows(a Matrix) Matrix { return marray.ReverseRows(a) }

// --- Sequential searching -------------------------------------------------
//
// Each problem has two forms. The error-returning form screens the input
// with the corresponding sampled validator — O(m+n) deterministic probes
// that never reject a valid array — and recovers any typed condition the
// computation throws. The Must* form skips validation entirely (identical
// cost to the pre-error API) and panics with the typed error instead,
// for inputs that carry the structure by construction.

// RowMinima returns the leftmost row minima of a Monge array in
// Theta(m+n) time (SMAWK). Inputs failing the sampled Monge screen return
// ErrNotMonge.
func RowMinima(a Matrix) (idx []int, err error) {
	if err = marray.CheckMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = smawk.RowMinima(a) })
	return idx, err
}

// MustRowMinima is RowMinima without the validation screen.
func MustRowMinima(a Matrix) []int { return smawk.RowMinima(a) }

// RowMaxima returns the leftmost row maxima of an inverse-Monge array.
// Inputs failing the sampled inverse-Monge screen return
// ErrNotInverseMonge.
func RowMaxima(a Matrix) (idx []int, err error) {
	if err = marray.CheckInverseMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = smawk.RowMaxima(a) })
	return idx, err
}

// MustRowMaxima is RowMaxima without the validation screen.
func MustRowMaxima(a Matrix) []int { return smawk.RowMaxima(a) }

// MongeRowMaxima returns the leftmost row maxima of a Monge array (the
// Table 1.1 problem).
func MongeRowMaxima(a Matrix) (idx []int, err error) {
	if err = marray.CheckMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = smawk.MongeRowMaxima(a) })
	return idx, err
}

// MustMongeRowMaxima is MongeRowMaxima without the validation screen.
func MustMongeRowMaxima(a Matrix) []int { return smawk.MongeRowMaxima(a) }

// StaircaseRowMinima returns the leftmost finite row minima of a
// staircase-Monge array (-1 for fully blocked rows). Inputs failing the
// sampled staircase-Monge screen return ErrNotStaircase or ErrNotMonge.
func StaircaseRowMinima(a Matrix) (idx []int, err error) {
	if err = marray.CheckStaircaseMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = smawk.StaircaseRowMinima(a) })
	return idx, err
}

// MustStaircaseRowMinima is StaircaseRowMinima without the validation
// screen.
func MustStaircaseRowMinima(a Matrix) []int { return smawk.StaircaseRowMinima(a) }

// TubeMaxima returns, per (i,k) tube of a Monge-composite array, the
// smallest maximising middle coordinate and the maxima values. Factor
// matrices failing the sampled Monge screen return ErrNotMonge.
func TubeMaxima(c Composite) (idx [][]int, vals [][]float64, err error) {
	if err = marray.CheckMongeSampled(c.D); err != nil {
		return nil, nil, err
	}
	if err = marray.CheckMongeSampled(c.E); err != nil {
		return nil, nil, err
	}
	err = catchInto(func() { idx, vals = smawk.TubeMaxima(c) })
	return idx, vals, err
}

// MustTubeMaxima is TubeMaxima without the validation screen.
func MustTubeMaxima(c Composite) ([][]int, [][]float64) { return smawk.TubeMaxima(c) }

// TubeMinima is the minimisation analogue for inverse-Monge factors
// (ErrNotInverseMonge on the sampled screen).
func TubeMinima(c Composite) (idx [][]int, vals [][]float64, err error) {
	if err = marray.CheckInverseMongeSampled(c.D); err != nil {
		return nil, nil, err
	}
	if err = marray.CheckInverseMongeSampled(c.E); err != nil {
		return nil, nil, err
	}
	err = catchInto(func() { idx, vals = smawk.TubeMinima(c) })
	return idx, vals, err
}

// MustTubeMinima is TubeMinima without the validation screen.
func MustTubeMinima(c Composite) ([][]int, [][]float64) { return smawk.TubeMinima(c) }

// --- PRAM -----------------------------------------------------------------

// Mode selects the PRAM memory discipline.
type Mode = pram.Mode

// CRCW and CREW are the machine modes of the paper's tables.
const (
	CRCW = pram.CRCW
	CREW = pram.CREW
)

// PRAM is a simulated step-synchronous PRAM with time/work accounting.
type PRAM = pram.Machine

// NewPRAM returns a machine with the given mode and declared processor
// count (Brent scheduling of larger supersteps is automatic).
func NewPRAM(mode Mode, procs int) *PRAM { return pram.New(mode, procs) }

// RowMinimaPRAM computes leftmost row minima of a Monge array on mach:
// O(lg n) charged time with n processors on CRCW (Table 1.1 via negation).
// Besides the sampled ErrNotMonge screen, the error return surfaces every
// typed condition of the simulation: ErrCanceled when mach's context is
// cancelled, ErrWriteConflict on a CREW conflict, and so on.
func RowMinimaPRAM(mach *PRAM, a Matrix) (idx []int, err error) {
	if err = marray.CheckMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = core.RowMinima(mach, a) })
	return idx, err
}

// MustRowMinimaPRAM is RowMinimaPRAM without the validation screen,
// panicking with the typed error on simulation conditions.
func MustRowMinimaPRAM(mach *PRAM, a Matrix) []int { return core.RowMinima(mach, a) }

// RowMaximaPRAM computes leftmost row maxima of an inverse-Monge array.
func RowMaximaPRAM(mach *PRAM, a Matrix) (idx []int, err error) {
	if err = marray.CheckInverseMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = core.RowMaxima(mach, a) })
	return idx, err
}

// MustRowMaximaPRAM is RowMaximaPRAM without the validation screen.
func MustRowMaximaPRAM(mach *PRAM, a Matrix) []int { return core.RowMaxima(mach, a) }

// MongeRowMaximaPRAM computes leftmost row maxima of a Monge array
// (Table 1.1's problem statement).
func MongeRowMaximaPRAM(mach *PRAM, a Matrix) (idx []int, err error) {
	if err = marray.CheckMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = core.MongeRowMaxima(mach, a) })
	return idx, err
}

// MustMongeRowMaximaPRAM is MongeRowMaximaPRAM without the validation
// screen.
func MustMongeRowMaximaPRAM(mach *PRAM, a Matrix) []int { return core.MongeRowMaxima(mach, a) }

// StaircaseRowMinimaPRAM is Theorem 2.3: leftmost finite row minima of a
// staircase-Monge array, O(lg n) charged CRCW time with n processors
// (Table 1.2).
func StaircaseRowMinimaPRAM(mach *PRAM, a Matrix) (idx []int, err error) {
	if err = marray.CheckStaircaseMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = core.StaircaseRowMinima(mach, a) })
	return idx, err
}

// MustStaircaseRowMinimaPRAM is StaircaseRowMinimaPRAM without the
// validation screen.
func MustStaircaseRowMinimaPRAM(mach *PRAM, a Matrix) []int {
	return core.StaircaseRowMinima(mach, a)
}

// TubeMaximaPRAM solves the tube-maxima problem on mach (Table 1.3).
func TubeMaximaPRAM(mach *PRAM, c Composite) (idx [][]int, vals [][]float64, err error) {
	if err = marray.CheckMongeSampled(c.D); err != nil {
		return nil, nil, err
	}
	if err = marray.CheckMongeSampled(c.E); err != nil {
		return nil, nil, err
	}
	err = catchInto(func() { idx, vals = core.TubeMaxima(mach, c) })
	return idx, vals, err
}

// MustTubeMaximaPRAM is TubeMaximaPRAM without the validation screen.
func MustTubeMaximaPRAM(mach *PRAM, c Composite) ([][]int, [][]float64) {
	return core.TubeMaxima(mach, c)
}

// TubeMinimaPRAM is the minimisation analogue for inverse-Monge factors.
func TubeMinimaPRAM(mach *PRAM, c Composite) (idx [][]int, vals [][]float64, err error) {
	if err = marray.CheckInverseMongeSampled(c.D); err != nil {
		return nil, nil, err
	}
	if err = marray.CheckInverseMongeSampled(c.E); err != nil {
		return nil, nil, err
	}
	err = catchInto(func() { idx, vals = core.TubeMinima(mach, c) })
	return idx, vals, err
}

// MustTubeMinimaPRAM is TubeMinimaPRAM without the validation screen.
func MustTubeMinimaPRAM(mach *PRAM, c Composite) ([][]int, [][]float64) {
	return core.TubeMinima(mach, c)
}

// --- Batched queries --------------------------------------------------------

// BatchDriver amortizes simulated-machine construction across many PRAM
// searches: it keeps one machine per shape class (distinct processor
// count) and routes every query of that shape through it, so the
// machine's scratch arenas reach steady state once and later same-shape
// queries run essentially allocation-free. Results are index-exact with
// the corresponding one-at-a-time entry points.
//
// A BatchDriver is not goroutine-safe. Call Close when the batch is done
// to release the retained machines' arenas; the driver is reusable
// afterwards.
type BatchDriver struct{ d *batch.Driver }

// NewBatchDriver returns a driver whose machines use the given PRAM mode.
func NewBatchDriver(mode Mode) *BatchDriver { return &BatchDriver{d: batch.New(mode)} }

// Backend selects the execution engine of a BatchDriver or DriverPool:
// BackendPRAM (the default) answers queries on the simulated machines of
// the paper's models, BackendNative directly on goroutines with no
// simulation overhead. Answers are index-exact across backends — the
// differential conformance suites enforce it — so the choice trades the
// simulator's charged-cost observability and fault injection for raw
// serving speed. See README "Execution backends".
type Backend = batch.Backend

const (
	// BackendPRAM serves queries on the simulated PRAM machines.
	BackendPRAM = batch.BackendPRAM
	// BackendNative serves queries on native goroutine kernels.
	BackendNative = batch.BackendNative
)

// NewBatchDriverBackend returns a driver routing queries to the given
// backend. For BackendPRAM it is NewBatchDriver; for BackendNative the
// driver runs internal/native kernels and retains no machines. To select
// the backend of a DriverPool, set PoolOptions.Backend.
func NewBatchDriverBackend(mode Mode, be Backend) *BatchDriver {
	return &BatchDriver{d: batch.NewWithBackend(mode, be)}
}

// SetContext attaches ctx to every machine the driver holds or later
// creates; cancellation aborts the running query with ErrCanceled.
func (b *BatchDriver) SetContext(ctx context.Context) { b.d.SetContext(ctx) }

// RowMinima is RowMinimaPRAM on the driver's machine for a's shape class.
func (b *BatchDriver) RowMinima(a Matrix) (idx []int, err error) {
	if err = marray.CheckMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = b.d.RowMinima(a) })
	return idx, err
}

// RowMinimaBatch answers every query through the per-shape machines.
// All inputs are screened before any query runs, so a bad array in the
// middle of the batch cannot leave half the answers computed.
func (b *BatchDriver) RowMinimaBatch(as []Matrix) (idx [][]int, err error) {
	for _, a := range as {
		if err = marray.CheckMongeSampled(a); err != nil {
			return nil, err
		}
	}
	err = catchInto(func() { idx = b.d.RowMinimaBatch(as) })
	return idx, err
}

// StaircaseRowMinima is StaircaseRowMinimaPRAM on the driver's machine
// for a's shape class (or the native staircase kernel on BackendNative).
func (b *BatchDriver) StaircaseRowMinima(a Matrix) (idx []int, err error) {
	if err = marray.CheckStaircaseMongeSampled(a); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = b.d.StaircaseRowMinima(a) })
	return idx, err
}

// TubeMaxima is TubeMaximaPRAM on the driver's machine for c's shape
// class (or the native tube kernel on BackendNative).
func (b *BatchDriver) TubeMaxima(c Composite) (idx [][]int, vals [][]float64, err error) {
	if err = marray.CheckMongeSampled(c.D); err != nil {
		return nil, nil, err
	}
	if err = marray.CheckMongeSampled(c.E); err != nil {
		return nil, nil, err
	}
	err = catchInto(func() { idx, vals = b.d.TubeMaxima(c) })
	return idx, vals, err
}

// TubeMaximaBatch is TubeMaximaPRAM for a batch of Monge-composite
// arrays, one retained machine per shape class.
func (b *BatchDriver) TubeMaximaBatch(cs []Composite) (idx [][][]int, vals [][][]float64, err error) {
	for _, c := range cs {
		if err = marray.CheckMongeSampled(c.D); err != nil {
			return nil, nil, err
		}
		if err = marray.CheckMongeSampled(c.E); err != nil {
			return nil, nil, err
		}
	}
	err = catchInto(func() { idx, vals = b.d.TubeMaximaBatch(cs) })
	return idx, vals, err
}

// Close resets the retained machines, releasing their scratch arenas.
// Close is idempotent; the driver is reusable afterwards.
func (b *BatchDriver) Close() { b.d.Close() }

// QueryStats is the simulated cost one driver query charged to its
// shape-class machine (the per-query diff of the cumulative counters).
type QueryStats = batch.QueryStats

// RowMinimaStats is RowMinima plus the query's charged cost.
func (b *BatchDriver) RowMinimaStats(a Matrix) (idx []int, st QueryStats, err error) {
	if err = marray.CheckMongeSampled(a); err != nil {
		return nil, QueryStats{}, err
	}
	err = catchInto(func() { idx, st = b.d.RowMinimaStats(a) })
	return idx, st, err
}

// --- Monge (min,+) multiplication and M-link paths --------------------------

// MinPlusProduct is the run-sparse result of a Monge (min,+)
// multiplication C = A ⊗ B, C[i][k] = min_j A[i][j] + B[j][k]: it
// stores only the columns where the witness (the argmin row of B)
// changes, recomputes entries on demand, and is itself a Matrix — so
// products chain without ever materializing an n x n value array. See
// internal/minplus for the representation.
type MinPlusProduct = minplus.Product

// LinkWeight is a link weight w(i, j) for 0 <= i < j <= n over the
// complete DAG on nodes 0..n, required to satisfy the Monge (concave
// quadrangle) inequality w(i,j) + w(i',j') <= w(i,j') + w(i',j) for
// i < i' < j < j'.
type LinkWeight = minplus.Weight

// MinPlus returns the Monge (min,+) product A ⊗ B — A m x q, B q x r,
// both Monge or staircase-Monge — as a run-sparse MinPlusProduct, in
// O(m(q+r)) evaluations via batched SMAWK row-minima queries against
// the naive O(mqr). Factors failing the sampled screens return
// ErrNotMonge / ErrNotStaircase; shape mismatches ErrDimensionMismatch.
func MinPlus(a, b Matrix) (p *MinPlusProduct, err error) {
	if err = MinPlusRequest(a, b).Query.Screen(); err != nil {
		return nil, err
	}
	err = catchInto(func() { p = MustMinPlus(a, b) })
	return p, err
}

// MustMinPlus is MinPlus without the validation screens, panicking with
// the typed error on conditions detected during the computation.
func MustMinPlus(a, b Matrix) *MinPlusProduct {
	e := minplus.New(batch.BackendNative)
	defer e.Close()
	return e.Multiply(a, b)
}

// MLinkPath returns the cost of the cheapest path from node 0 to node
// n using exactly M forward links under the Monge weight w, and its
// node sequence (length M+1). The solver picks between repeated
// ⊗-squaring of the link matrix and a Lagrangian (λ-parametrized)
// search over the least-weight subsequence DP; both are exact. No
// M-link path (M > n) yields (+Inf, nil, nil); a weight failing the
// sampled quadrangle screen returns ErrNotMonge.
func MLinkPath(n int, w LinkWeight, M int) (cost float64, path []int, err error) {
	if err = MLinkPathRequest(n, w, M).Query.Screen(); err != nil {
		return 0, nil, err
	}
	err = catchInto(func() { cost, path = MustMLinkPath(n, w, M) })
	if err != nil {
		return 0, nil, err
	}
	return cost, path, nil
}

// MustMLinkPath is MLinkPath without the validation screen.
func MustMLinkPath(n int, w LinkWeight, M int) (float64, []int) {
	e := minplus.New(batch.BackendNative)
	defer e.Close()
	return e.MLinkPath(n, w, M)
}

// --- Concurrent serving -----------------------------------------------------

// ErrPoolClosed reports a DriverPool submission after Close.
var ErrPoolClosed = serve.ErrClosed

// ErrOverloaded reports a submission rejected by load discipline: full
// queue, inflight cap, shed low-priority work, or an exhausted tenant
// quota. Match with errors.Is; the message names the specific gate.
var ErrOverloaded = serve.ErrOverloaded

// ErrDeadlineExceeded reports a query whose deadline passed before (or
// while) it was evaluated. It also matches context.DeadlineExceeded.
var ErrDeadlineExceeded = serve.ErrDeadlineExceeded

// PoolResult is one served query's answer; see DriverPool.
type PoolResult = serve.Result

// PoolTicket is the future a DriverPool submission returns.
type PoolTicket = serve.Ticket

// PoolStats is a snapshot of a DriverPool's serving counters.
type PoolStats = serve.Stats

// PoolOptions configures a DriverPool; the zero value means GOMAXPROCS
// workers, background context, inherited fault injector, fail-fast
// default admission. Set Admission to shape the
// load-discipline policy (inflight cap, shedding, tenant quotas,
// retries, hedging); see README "Load discipline".
type PoolOptions = serve.Options

// PoolAdmission is the load-discipline policy block of PoolOptions.
type PoolAdmission = serve.Admission

// PoolRequest is one admitted request: the query's input plus admission
// metadata (tenant for quotas, priority for shedding order).
type PoolRequest = admit.Request

// FrontStats snapshots a pool front's admission counters.
type FrontStats = admit.Stats

// DriverPool is the goroutine-safe counterpart of BatchDriver: it
// shards a stream of queries across worker goroutines, each owning a
// private BatchDriver-equivalent (so the per-shape machine arenas are
// never shared) that evaluates the inputs directly. Every query kind
// enters through one of two calls taking a *Request-built PoolRequest:
// Submit (a ticket, no admission) or Do (the admission lifecycle).
// Results are index-exact with the sequential entry points.
// Submissions may come from any number of goroutines.
//
// Use a BatchDriver for a single-goroutine batch; use a DriverPool when
// queries arrive concurrently or you want to spend multiple cores on a
// stream of many small queries. See README "Serving queries
// concurrently" for the decision table.
type DriverPool struct {
	p *serve.Pool
	f *admit.Front
}

// NewDriverPool returns a running pool with the given PRAM mode and
// worker count (workers <= 0 means GOMAXPROCS).
func NewDriverPool(mode Mode, workers int) *DriverPool {
	return NewDriverPoolOpts(mode, PoolOptions{Workers: workers})
}

// NewDriverPoolContext is NewDriverPool with a pool context: cancelling
// ctx aborts in-flight and queued queries, whose tickets then resolve
// with ErrCanceled.
func NewDriverPoolContext(ctx context.Context, mode Mode, workers int) *DriverPool {
	return NewDriverPoolOpts(mode, PoolOptions{Workers: workers, Context: ctx})
}

// NewDriverPoolOpts is the fully configurable constructor. The pool
// always carries an admission front (Do, Front); with opt.Admission nil
// the front applies the zero policy — fail-fast rejection at the
// default inflight cap, no quotas, no retries, no hedging.
func NewDriverPoolOpts(mode Mode, opt PoolOptions) *DriverPool {
	p := serve.New(mode, opt)
	return &DriverPool{p: p, f: admit.New(p, opt.Admission)}
}

// Submit screens req's query on the calling goroutine (Query.Screen:
// the sampled structural check its kind needs), so structural errors
// surface immediately and nothing is enqueued, then submits it with no
// admission: req's Tenant and Priority are ignored. Build req with the
// *Request constructors. If ctx is done before the query is evaluated
// the ticket resolves with ErrDeadlineExceeded (deadline) or
// ErrCanceled (cancellation) instead of being computed, and a deadline
// firing mid-evaluation aborts the simulation at its next superstep.
// Use Do for the full load-discipline lifecycle.
func (dp *DriverPool) Submit(ctx context.Context, req PoolRequest) (*PoolTicket, error) {
	if err := req.Query.Screen(); err != nil {
		return nil, err
	}
	return dp.p.SubmitCtx(ctx, req.Query)
}

// Index is a prebuilt submatrix max/min query structure over one Monge
// (or staircase-Monge) matrix: near-linear preprocessing, then cheap
// point/range queries answered from stored envelopes without re-running
// SMAWK. Safe for concurrent queries after Build.
type Index = mindex.Index

// IndexPos is a submatrix-maximum answer: position plus value, with the
// lexicographically smallest (row, col) among tied maxima. A fully
// blocked staircase rectangle answers {-1, -1, -Inf}.
type IndexPos = mindex.Pos

// BuildIndex preprocesses a into a submatrix-maximum index. Inputs that
// do not carry the Staircase interface are probed for +Inf blocking, so
// dense staircase matrices build the staircase solvers too; the probed
// input is screened with the sampled validator (staircase-Monge when
// blocked, plain Monge otherwise) before any preprocessing work.
func BuildIndex(a Matrix) (ix *Index, err error) {
	in, err := serve.ScreenMatrix(a)
	if err != nil {
		return nil, err
	}
	err = catchInto(func() { ix = mindex.Build(in, mindex.Opts{}) })
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// IndexSubmatrixMax answers a submatrix-maximum query on the calling
// goroutine, without going through a pool.
func IndexSubmatrixMax(ix *Index, r1, r2, c1, c2 int) (pos IndexPos, err error) {
	if err = SubmatrixMaxRequest(ix, r1, r2, c1, c2).Query.Screen(); err != nil {
		return IndexPos{}, err
	}
	err = catchInto(func() { pos = ix.SubmatrixMax(r1, r2, c1, c2) })
	return pos, err
}

// IndexRangeRowMinima answers a row-range minima query on the calling
// goroutine, without going through a pool.
func IndexRangeRowMinima(ix *Index, r1, r2 int) (idx []int, err error) {
	if err = RangeRowMinimaRequest(ix, r1, r2).Query.Screen(); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = ix.RangeRowMinima(r1, r2) })
	return idx, err
}

// Do runs one request through the pool's full load-discipline
// lifecycle: admission gates (inflight cap, shedding, tenant quota),
// the deadline carried by ctx, budgeted retries, and hedging when
// configured. The result either carries an index-exact answer or a
// typed error (ErrOverloaded, ErrDeadlineExceeded, ErrCanceled,
// ErrPoolClosed, or a structural error). The query is screened before
// admission, exactly as Submit screens it.
func (dp *DriverPool) Do(ctx context.Context, req PoolRequest) PoolResult {
	if err := req.Query.Screen(); err != nil {
		return PoolResult{Err: err}
	}
	return dp.f.Do(ctx, req)
}

// RowMinimaRequest builds a row-minima request for Submit or Do.
func RowMinimaRequest(a Matrix) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.RowMinima, A: a}}
}

// StaircaseRowMinimaRequest builds a staircase row-minima request.
func StaircaseRowMinimaRequest(a Matrix) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.StaircaseRowMinima, A: a}}
}

// TubeMaximaRequest builds a tube-maxima request.
func TubeMaximaRequest(c Composite) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.TubeMaxima, C: c}}
}

// SubmatrixMaxRequest builds a submatrix-maximum request against a
// prebuilt index; the result carries the answer in Pos.
func SubmatrixMaxRequest(ix *Index, r1, r2, c1, c2 int) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.SubmatrixMax, Index: ix, R1: r1, R2: r2, C1: c1, C2: c2}}
}

// RangeRowMinimaRequest builds a row-range minima request against a
// prebuilt index.
func RangeRowMinimaRequest(ix *Index, r1, r2 int) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.RangeRowMinima, Index: ix, R1: r1, R2: r2}}
}

// MinPlusRequest builds a (min,+) multiplication request; the result
// carries the run-sparse product in Prod.
func MinPlusRequest(a, b Matrix) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.MinPlus, A: a, B: b}}
}

// MLinkPathRequest builds an M-link path request; the result carries
// the cost in Cost and the node sequence in Idx (nil when no M-link
// path exists).
func MLinkPathRequest(n int, w LinkWeight, M int) PoolRequest {
	return PoolRequest{Query: serve.Query{Kind: serve.MLinkPath, W: w, N: n, M: M}}
}

// Front exposes the pool's admission front for callers that want the
// lower-level Admit/Do/Stats API directly.
func (dp *DriverPool) Front() *admit.Front { return dp.f }

// FrontStats snapshots the admission counters (admitted, rejected,
// shed, hedged, retried, deadline-expired, inflight).
func (dp *DriverPool) FrontStats() FrontStats { return dp.f.Stats() }

// RowMinimaStream submits one row-minima query per matrix and returns a
// channel yielding results in submission order, closed after the last.
// Matrices failing the sampled screen, and submissions after Close,
// yield in-band results with Err set so the channel stays aligned with
// the input slice.
func (dp *DriverPool) RowMinimaStream(as []Matrix) <-chan PoolResult {
	// The screens run here, synchronously; failing inputs are dropped
	// from the submitted slice and their errors re-inserted in order.
	errs := make([]error, len(as))
	ok := make([]Matrix, 0, len(as))
	for i, a := range as {
		if err := RowMinimaRequest(a).Query.Screen(); err != nil {
			errs[i] = err
		} else {
			ok = append(ok, a)
		}
	}
	inner := dp.p.RowMinimaStream(ok)
	out := make(chan PoolResult)
	go func() {
		defer close(out)
		for i := range as {
			if errs[i] != nil {
				out <- PoolResult{Err: errs[i]}
				continue
			}
			out <- <-inner
		}
	}()
	return out
}

// Wait blocks until every query submitted so far has resolved; the pool
// keeps serving afterwards.
func (dp *DriverPool) Wait() { dp.p.Wait() }

// Stats snapshots the pool's serving counters (queries per shard,
// imbalance).
func (dp *DriverPool) Stats() PoolStats { return dp.p.Stats() }

// Close drains pending queries, stops the worker goroutines, and
// releases their machines. Idempotent and safe to call concurrently;
// submissions after Close return ErrPoolClosed. While draining,
// Stats().State reports "draining"; once Close returns it reports
// "closed" and the admission front's watcher goroutines have exited.
func (dp *DriverPool) Close() {
	dp.p.Close()
	dp.f.Drain()
}

// --- Hypercube and constant-degree networks -------------------------------

// NetworkKind selects the distributed-memory network.
type NetworkKind = hc.Kind

// Hypercube, CCC and ShuffleExchange are the network kinds of Section 3.
const (
	Hypercube       = hc.Cube
	CCC             = hc.CCC
	ShuffleExchange = hc.Shuffle
)

// Network is a simulated distributed-memory machine.
type Network = hc.Machine

// NewNetworkFor returns a machine of the given kind sized for an m x n
// search, for callers that want to attach a context (Network.SetContext),
// fault injector (Network.SetFaults), or instrumentation sink before
// passing it to the *Hypercube entry points.
func NewNetworkFor(kind NetworkKind, m, n int) *Network {
	return hcmonge.MachineFor(kind, m, n)
}

// RowMinimaHypercube computes leftmost row minima of the Monge array
// a[i,j] = f(v[i], w[j]) in the paper's distributed input model (processor
// i holds v[i] and w[i]) on mach (use NewNetworkFor, or any machine at
// least that large — ErrMachineTooSmall otherwise), returning the answers
// (Theorem 3.2's time bound; see EXPERIMENTS.md for the processor-count
// deviation). The error surfaces the sampled ErrNotMonge screen and every
// typed simulation condition, including ErrCanceled from mach's context.
func RowMinimaHypercube(mach *Network, v, w []float64, f func(vi, wj float64) float64) (idx []int, err error) {
	if err = marray.CheckMongeSampled(distArray(v, w, f)); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = hcmonge.RowMinimaOn(mach, v, w, f) })
	return idx, err
}

// MustRowMinimaHypercube runs on a freshly sized machine with no
// validation screen, returning the machine for counter inspection (the
// pre-error-API form).
func MustRowMinimaHypercube(kind NetworkKind, v, w []float64, f func(vi, wj float64) float64) ([]int, *Network) {
	return hcmonge.RowMinima(kind, v, w, f)
}

// MongeRowMaximaHypercube is the Table 1.1 row-maxima problem on the
// distributed networks.
func MongeRowMaximaHypercube(mach *Network, v, w []float64, f func(vi, wj float64) float64) (idx []int, err error) {
	if err = marray.CheckMongeSampled(distArray(v, w, f)); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = hcmonge.MongeRowMaximaOn(mach, v, w, f) })
	return idx, err
}

// MustMongeRowMaximaHypercube runs on a freshly sized machine with no
// validation screen.
func MustMongeRowMaximaHypercube(kind NetworkKind, v, w []float64, f func(vi, wj float64) float64) ([]int, *Network) {
	return hcmonge.MongeRowMaxima(kind, v, w, f)
}

// StaircaseRowMinimaHypercube is Theorem 3.3: staircase-Monge row minima
// on the distributed networks; bound[i] is row i's first blocked column
// (nonincreasing, ErrNotStaircase otherwise).
func StaircaseRowMinimaHypercube(mach *Network, v []float64, bound []int, w []float64, f func(vi, wj float64) float64) (idx []int, err error) {
	stair := NewStair(len(v), len(w), func(i, j int) float64 { return f(v[i], w[j]) }, func(i int) int {
		b := bound[i]
		if b < 0 {
			b = 0
		}
		if b > len(w) {
			b = len(w)
		}
		return b
	})
	if err = marray.CheckStaircaseMongeSampled(stair); err != nil {
		return nil, err
	}
	err = catchInto(func() { idx = hcmonge.StaircaseRowMinimaOn(mach, v, bound, w, f) })
	return idx, err
}

// MustStaircaseRowMinimaHypercube runs on a freshly sized machine with no
// validation screen.
func MustStaircaseRowMinimaHypercube(kind NetworkKind, v []float64, bound []int, w []float64, f func(vi, wj float64) float64) ([]int, *Network) {
	return hcmonge.StaircaseRowMinima(kind, v, bound, w, f)
}

// NewTubeNetworkFor returns a machine of the given kind sized for the tube
// search on composite c (one subcube per slice of the first dimension).
func NewTubeNetworkFor(kind NetworkKind, c Composite) *Network {
	return hcmonge.TubeMachineFor(kind, c)
}

// TubeMaximaHypercube is Theorem 3.4: tube maxima of a Monge-composite
// array on an O(n^2)-processor network in O(lg n) charged time. Size mach
// with NewTubeNetworkFor.
func TubeMaximaHypercube(mach *Network, c Composite) (idx [][]int, vals [][]float64, err error) {
	if err = marray.CheckMongeSampled(c.D); err != nil {
		return nil, nil, err
	}
	if err = marray.CheckMongeSampled(c.E); err != nil {
		return nil, nil, err
	}
	err = catchInto(func() { idx, vals = hcmonge.TubeMaximaOn(mach, c) })
	return idx, vals, err
}

// MustTubeMaximaHypercube runs on a freshly sized machine with no
// validation screen.
func MustTubeMaximaHypercube(kind NetworkKind, c Composite) ([][]int, [][]float64, *Network) {
	return hcmonge.TubeMaxima(kind, c)
}

// distArray views the distributed inputs as the implicit matrix they
// define, for the boundary validators.
func distArray(v, w []float64, f func(vi, wj float64) float64) Matrix {
	return marray.Func{M: len(v), N: len(w), F: func(i, j int) float64 { return f(v[i], w[j]) }}
}
