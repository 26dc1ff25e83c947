// Package minplus implements Monge (min,+) matrix multiplication and
// the shortest M-link path solver built on it.
//
// # The reduction
//
// The (min,+) product of an m x q matrix A and a q x r matrix B is
// C[i][k] = min_j A[i][j] + B[j][k]. Fixing an output row i and
// defining the r x q slice W_i[k][j] = A[i][j] + B[j][k], row k of W_i
// lists the candidates of output entry C[i][k] — so row i of the
// product is exactly one row-minima query on W_i. The A-row terms
// cancel in every 2x2 minor of W_i, so W_i is Monge whenever B is, and
// the whole multiplication becomes a stream of m same-shape totally
// monotone row-minima queries: O(m(q+r)) evaluations via SMAWK against
// the naive O(mqr).
//
// # Execution
//
// The queries run through an internal/batch Driver. Output rows are
// independent, so a native driver wider than one worker gets row
// parallelism rather than per-query fan-out: the m rows are cut into a
// few contiguous blocks per worker, the blocks run as one work-stealing
// loop on the driver's pool, and every row query inside a block runs
// inline on a width-1 native kernel with the block's own witness buffer
// and run arrays, concatenated into the Product at the end. Width-1
// drivers (every serve pool worker), PRAM drivers (one retained
// machine per shape class, the conformance oracle) and single-row
// products keep a sequential loop through the driver.
//
// On either path a slice reads A's row i from a copy made once per
// output row, and reads B through a temporary dense transpose when the
// copy costs no more evaluations than SMAWK makes (q·r <= m·(q+r)) and
// fits a fixed byte cap. Every value is still the factors' own entries
// summed in the same order, so products, witnesses and run breaks are
// bit-identical for every driver width. The transposed copy and the
// blocks' buffers do not outlive the call.
//
// # Blocked (+Inf) entries
//
// Two +Inf patterns arise and are both handled without padding:
//
//   - Staircase factors (right/down-closed +Inf regions): slice row k
//     then has a finite prefix and a blocked suffix whose boundary is
//     nonincreasing in k, i.e. W_i is staircase-Monge, and the engine
//     routes the slice through the staircase row-minima kernels.
//   - Upper-triangular DAG matrices (the M-link weight matrices
//     D[i][j] = w(i,j) for i < j, +Inf otherwise, and their ⊗ powers):
//     slice row k is finite exactly on a window whose left edge is
//     fixed and whose right edge grows with k. Such slices are totally
//     monotone for leftmost minima (the finite windows are Monge and
//     grow downward), so the plain SMAWK route applies.
//
// Wherever C[i][k] = +Inf the witness is normalized to -1; the naive
// oracle uses the identical convention, which is what makes witness
// agreement index-exact across naive/PRAM/native even on blocked
// entries.
//
// # Core-sparse products
//
// Because each W_i is totally monotone, the witness j*(i,k) is
// nondecreasing in k along every output row; a Product therefore
// stores only the run breaks — the columns where the argmin row of B
// changes — per arXiv 2408.04613's core representation. A product of
// two n x n Monge matrices carries at most min(q,r)+1 runs per row and
// typically far fewer, so repeated ⊗-squaring (the M-link solver)
// stays subquadratic in space while At/Witness remain O(lg runs)
// binary searches.
package minplus

import (
	"context"
	"math"

	"monge/internal/batch"
	"monge/internal/exec"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/native"
	"monge/internal/pram"
)

// inf is the blocked-entry sentinel, shared with marray.
var inf = math.Inf(1)

// Engine multiplies Monge matrices through a batch.Driver, at the
// driver's width: row blocks on a wide native driver, a sequential row
// loop otherwise (see the package comment). An Engine is not
// goroutine-safe (it shares the driver's machines); concurrent callers
// use one Engine per goroutine, exactly like batch.Driver. The zero
// value is not usable; construct with New or NewWith.
type Engine struct {
	d     *batch.Driver
	owned bool
}

// New returns an Engine owning a private CRCW-mode driver on the given
// backend. Close releases the driver's retained machines.
func New(be batch.Backend) *Engine {
	return &Engine{d: batch.NewWithBackend(pram.CRCW, be), owned: true}
}

// NewWith returns an Engine borrowing d — the serving layer hands each
// pool worker's private driver to a per-worker engine. Close leaves a
// borrowed driver untouched.
func NewWith(d *batch.Driver) *Engine {
	return &Engine{d: d}
}

// Driver exposes the underlying driver (for fault/context wiring in
// tests and benches).
func (e *Engine) Driver() *batch.Driver { return e.d }

// Close releases an owned driver's retained machines; borrowed drivers
// stay with their owner. The Engine is reusable after Close.
func (e *Engine) Close() {
	if e.owned {
		e.d.Close()
	}
}

// Multiply returns the (min,+) product A ⊗ B as a run-sparse Product.
// A must be m x q and B q x r; both Monge (the facade validates, the
// engine trusts). Factors carrying blocked rows — a Staircase
// implementation or rows ending in +Inf — route through the staircase
// kernels; fully finite factors through plain SMAWK.
func (e *Engine) Multiply(a, b marray.Matrix) *Product {
	checkMul(a, b)
	return e.multiply(a, b, hasBlockedRows(a) || hasBlockedRows(b))
}

// checkMul rejects incompatible or degenerate shapes at the engine
// seam with the shared typed error.
func checkMul(a, b marray.Matrix) {
	if a.Cols() != b.Rows() {
		merr.Throwf(merr.ErrDimensionMismatch,
			"minplus: inner dimensions %d and %d differ", a.Cols(), b.Rows())
	}
	if a.Rows() <= 0 || a.Cols() <= 0 || b.Cols() <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"minplus: %dx%d ⊗ %dx%d; all dimensions must be positive",
			a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
}

// hasBlockedRows reports whether any row of x ends in +Inf — the
// staircase signature (a right/down-closed blocked region always
// reaches the last column of its rows). O(rows) entry probes, against
// the O(rows·cols) a full scan would cost.
func hasBlockedRows(x marray.Matrix) bool {
	if s, ok := x.(marray.Staircase); ok {
		// Boundaries are nonincreasing: the last row has the smallest.
		return s.Boundary(x.Rows()-1) < x.Cols()
	}
	n := x.Cols()
	for i := x.Rows() - 1; i >= 0; i-- {
		if math.IsInf(x.At(i, n-1), 1) {
			return true
		}
	}
	return false
}

const (
	// blocksPerWorker cuts the output rows into a few blocks per worker,
	// so work stealing evens out rows of unequal cost (staircase slices).
	blocksPerWorker = 4
	// maxTransposeBytes caps the temporary transposed copy of B: 32 MiB
	// (a 2048x2048 factor) bounds what one product adds to the heap.
	maxTransposeBytes = 32 << 20
)

// serialPool is the width-1 pool every row query of a row block runs
// on: one-worker pools run inline and never start a goroutine.
var serialPool = exec.NewPool(1)

// slice is the row-minima query of one output row i: the r x q array
// W_i[k][j] = A[i][j] + B[j][k], with A's row i hoisted into arow and B
// read through its dense transpose bt when the engine made one. Both
// operands are the factors' own entries, so every value is the same
// float sum the naive oracle forms.
type slice struct {
	arow []float64
	b    marray.Matrix
	bt   *marray.Dense // B transposed, or nil to read b directly
}

func (s *slice) Rows() int { return s.b.Cols() }
func (s *slice) Cols() int { return len(s.arow) }
func (s *slice) At(k, j int) float64 {
	if s.bt != nil {
		return s.arow[j] + s.bt.At(k, j)
	}
	return s.arow[j] + s.b.At(j, k)
}

// band is the run-length encoding of a contiguous range of output rows:
// the slice query and witness buffer it solves them with, the runs, and
// ends[t], the run count after the range's t-th row.
type band struct {
	w          slice
	wit        []int
	runK, runJ []int32
	ends       []int32
	fail       any // panic recovered on a pool worker, re-thrown by the caller
}

// newBand returns a band of len(ends) output rows of a product with
// right factor b (bt its transposed copy or nil) and inner dimension q.
func newBand(b marray.Matrix, bt *marray.Dense, q int, ends []int32) *band {
	return &band{
		w:    slice{arow: make([]float64, q), b: b, bt: bt},
		wit:  make([]int, b.Cols()),
		runK: make([]int32, 0, 2*len(ends)),
		runJ: make([]int32, 0, 2*len(ends)),
		ends: ends,
	}
}

// row solves output row i (the band's t-th) with the row-minima kernel
// query, normalizes +Inf entries to witness -1, and run-length encodes
// the witnesses: a run break wherever the argmin row of B changes.
func (bd *band) row(a marray.Matrix, i, t int, query func(marray.Matrix, []int)) {
	for j := range bd.w.arow {
		bd.w.arow[j] = a.At(i, j)
	}
	query(&bd.w, bd.wit)
	prev := int32(math.MinInt32)
	for k, wj := range bd.wit {
		j := int32(wj)
		if j >= 0 && math.IsInf(bd.w.At(k, wj), 1) {
			j = -1
		}
		if j != prev {
			bd.runK = append(bd.runK, int32(k))
			bd.runJ = append(bd.runJ, j)
			prev = j
		}
	}
	bd.ends[t] = int32(len(bd.runK))
}

// multiply is the shared core: one row-minima query per output row on
// the slice W_i, stair selecting the staircase kernels, in row blocks
// or a sequential loop as the package comment describes. The M-link
// solver calls it with stair=false on its triangular matrices (plain
// total monotonicity, see the package comment).
func (e *Engine) multiply(a, b marray.Matrix, stair bool) *Product {
	m, q, r := a.Rows(), a.Cols(), b.Cols()
	p := &Product{m: m, r: r, a: a, b: b, rowStart: make([]int32, m+1)}
	// The transposed copy of B lives only for this call.
	var bt *marray.Dense
	if transposePays(m, q, r) {
		bt = marray.Materialize(marray.Transpose(b))
	}
	pool, ctx := e.d.Fanout()
	if nb := rowBlocks(pool, m); nb > 1 {
		multiplyBlocks(ctx, pool, p, bt, stair, nb)
		return p
	}

	query := e.d.RowMinimaInto
	if stair {
		query = e.d.StaircaseRowMinimaInto
	}
	bd := newBand(b, bt, q, p.rowStart[1:])
	for i := 0; i < m; i++ {
		bd.row(a, i, i, query)
	}
	p.runK, p.runJ = bd.runK, bd.runJ
	return p
}

// rowBlocks returns how many output-row blocks a product of m rows
// runs as on pool; 1 keeps the sequential loop.
func rowBlocks(pool *exec.Pool, m int) int {
	if pool == nil || pool.Workers() <= 1 || m <= 1 {
		return 1
	}
	return min(m, blocksPerWorker*pool.Workers())
}

// transposePays reports whether the slices read B through a dense
// transposed copy. Reading B down a column costs an implicit At per
// entry; the copy turns each slice row into one contiguous row. It pays
// when it costs no more evaluations than the ~m·(q+r) SMAWK makes and
// fits maxTransposeBytes.
func transposePays(m, q, r int) bool {
	qr := int64(q) * int64(r)
	return qr <= int64(m)*int64(q+r) && 8*qr <= maxTransposeBytes
}

// multiplyBlocks fills p by nb contiguous output-row blocks run as one
// Grain=1 loop on pool, each with its own slice, witness buffer and run
// arrays, then concatenates the blocks' runs with rowStart rebased.
// Cancellation (ctx done before or between row queries) and any panic
// a worker recovers surface on the calling goroutine.
func multiplyBlocks(ctx context.Context, pool *exec.Pool, p *Product, bt *marray.Dense, stair bool, nb int) {
	a, b, m, q := p.a, p.b, p.m, p.a.Cols()
	kernel := native.RowMinimaInto
	if stair {
		kernel = native.StaircaseRowMinimaInto
	}
	query := func(w marray.Matrix, out []int) { kernel(ctx, serialPool, w, out) }
	bands := make([]*band, nb) // nil where cancellation skipped the block
	_, err := pool.Run(exec.Loop{
		N: nb, Grain: 1, Ctx: ctx,
		Body: func(k int) {
			lo, hi := k*m/nb, (k+1)*m/nb
			bd := newBand(b, bt, q, make([]int32, hi-lo))
			bands[k] = bd
			defer func() { bd.fail = recover() }()
			for i := lo; i < hi; i++ {
				bd.row(a, i, i-lo, query)
			}
		},
	})
	for _, bd := range bands {
		if bd != nil && bd.fail != nil {
			panic(bd.fail)
		}
	}
	if err != nil {
		merr.Throw(merr.Canceled(err))
	}
	total := 0
	for _, bd := range bands {
		total += len(bd.runK)
	}
	p.runK = make([]int32, 0, total)
	p.runJ = make([]int32, 0, total)
	for k, bd := range bands {
		base, lo := int32(len(p.runK)), k*m/nb
		for t, end := range bd.ends {
			p.rowStart[lo+t+1] = base + end
		}
		p.runK = append(p.runK, bd.runK...)
		p.runJ = append(p.runJ, bd.runJ...)
	}
}

// Product is the run-sparse (core) representation of a (min,+)
// product: per output row, the columns where the witness (the argmin
// row of B) changes, plus the retained factors. Entries are recomputed
// on demand as A[i][j*] + B[j*][k], so a Product implements
// marray.Matrix and can itself be a factor of the next multiplication
// — repeated squaring never materializes an n x n value array. Safe
// for concurrent At/Witness calls, like every Matrix.
type Product struct {
	m, r int
	a, b marray.Matrix
	// rowStart[i]..rowStart[i+1] index row i's runs in runK/runJ:
	// runK holds each run's first column, runJ its witness (-1 for a
	// +Inf run).
	rowStart []int32
	runK     []int32
	runJ     []int32
}

// Rows returns the row count m of the product.
func (p *Product) Rows() int { return p.m }

// Cols returns the column count r of the product.
func (p *Product) Cols() int { return p.r }

// At returns C[i][k] = A[i][j*] + B[j*][k] for the stored witness j*,
// or +Inf on a blocked entry. O(lg runs-in-row) by binary search.
func (p *Product) At(i, k int) float64 {
	j := p.Witness(i, k)
	if j < 0 {
		return inf
	}
	return p.a.At(i, j) + p.b.At(j, k)
}

// Witness returns the leftmost argmin row of B for entry (i, k) — the
// j attaining C[i][k], identical to the naive oracle's leftmost scan —
// or -1 where C[i][k] = +Inf.
func (p *Product) Witness(i, k int) int {
	if i < 0 || i >= p.m || k < 0 || k >= p.r {
		merr.Throwf(merr.ErrDimensionMismatch,
			"minplus: Witness(%d, %d) out of range for %dx%d product", i, k, p.m, p.r)
	}
	lo, hi := p.rowStart[i], p.rowStart[i+1] // invariant: runK[lo] <= k < runK[hi]
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if int(p.runK[mid]) <= k {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int(p.runJ[lo])
}

// Runs returns the total run count across all rows — the core size the
// sparsity gate measures. A dense representation would be m*r.
func (p *Product) Runs() int { return len(p.runK) }

// Dense materializes the product's values (blocked entries +Inf).
func (p *Product) Dense() *marray.Dense { return marray.Materialize(p) }

// MultiplyNaive is the O(m·q·r) reference oracle: values and witnesses
// by exhaustive leftmost scan, with the same conventions as the engine
// (strict < keeps the leftmost minimum; witness -1 and value +Inf when
// no finite candidate exists).
func MultiplyNaive(a, b marray.Matrix) (*marray.Dense, [][]int) {
	checkMul(a, b)
	m, q, r := a.Rows(), a.Cols(), b.Cols()
	c := marray.NewDense(m, r)
	wit := make([][]int, m)
	wb := make([]int, m*r)
	for i := 0; i < m; i++ {
		wit[i] = wb[i*r : (i+1)*r : (i+1)*r]
		for k := 0; k < r; k++ {
			best, bj := inf, -1
			for j := 0; j < q; j++ {
				if v := a.At(i, j) + b.At(j, k); v < best {
					best, bj = v, j
				}
			}
			c.Set(i, k, best)
			wit[i][k] = bj
		}
	}
	return c, wit
}
