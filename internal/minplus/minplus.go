// Package minplus implements Monge (min,+) matrix multiplication and
// the shortest M-link path solver that runs on the same driver.
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
// the naive O(mqr). Symmetrically, fixing k, the B terms cancel and the
// m x q array A[i][j] + B[j][k] is Monge whenever A is, so the witness
// is nondecreasing in i too; the native engine reads fewer entries by
// using both (see Execution).
//
// # Execution
//
// A PRAM driver (one retained machine per shape class) answers one
// kernel query per output row through the driver: the conformance
// oracle. A native driver also uses the other half of the tube
// structure: with A Monge, j*(i,k) is nondecreasing in i as well as in
// k. The m rows are cut into contiguous row blocks, a few per pool
// worker and at least minBlockRows tall, and the kernel (SMAWK, inline
// on the block's goroutine) solves only the anchor rows: the first row
// of each block, plus row m-1. Each block then fills the rows between
// its anchor and the next by divide and conquer on midpoints. A row i
// between solved rows lo < i < hi takes j*(i,k) from a leftmost scan of
// j over the window [max(j*(lo,k), j*(i,k')), j*(hi,k)], where k' < k
// is the last column with a finite witness in row i; a blocked witness
// (-1) bounds nothing. The scan is a tight loop over the hoisted A row
// and B's transposed row k. A row whose windows would span more than
// windowBudget·(q+r) entries goes to the kernel instead, over just the
// columns its windows span. Staircase products skip the windows (their
// slices are not monotone in i), so every row goes to the kernel,
// through the same blocks. The anchors and then the blocks run as one
// work-stealing loop each on the driver's pool, inline at width 1, every
// block with its own scratch and run arrays, concatenated into the
// Product at the end. With an observer installed, each block adds its
// kernel rows, B reads and runs to the "minplus" obs site.
//
// Every slice reads B through a temporary dense transpose when the copy
// costs no more evaluations than SMAWK makes (q·r <= m·(q+r)) and fits
// a fixed byte cap; the copy is filled as one loop of row tiles on the
// same pool. Every value is still the factors' own entries summed in
// the same order, so products, witnesses and run breaks are
// bit-identical for every backend and driver width. The transposed
// copy and the blocks' buffers are allocated per call and do not
// outlive it.
//
// # Blocked (+Inf) entries
//
// Two +Inf patterns arise and are both handled without padding:
//
//   - Staircase factors (right/down-closed +Inf regions): slice row k
//     then has a finite prefix and a blocked suffix whose boundary is
//     nonincreasing in k, i.e. W_i is staircase-Monge, and the engine
//     routes the slice through the staircase row-minima kernels.
//   - Upper-triangular DAG matrices (link weight matrices
//     D[i][j] = w(i,j) for i < j, +Inf otherwise, and their ⊗ powers):
//     slice row k is finite exactly on a window whose left edge is
//     fixed and whose right edge grows with k. Such slices are totally
//     monotone for leftmost minima (the finite windows are Monge and
//     grow downward), so the plain SMAWK route applies. Across output
//     rows the left edge grows with i, and the witness windows apply
//     too.
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
// typically far fewer, so a chain of products used as factors stays
// subquadratic in space while At/Witness remain O(lg runs) binary
// searches.
package minplus

import (
	"context"
	"math"

	"monge/internal/batch"
	"monge/internal/exec"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/native"
	"monge/internal/obs"
	"monge/internal/pram"
)

// inf is the blocked-entry sentinel, shared with marray.
var inf = math.Inf(1)

// Engine multiplies Monge matrices through a batch.Driver, at the
// driver's width: row blocks and witness windows on a native driver,
// one kernel query per row on a PRAM driver (see the package comment).
// An Engine is not goroutine-safe (it shares the driver's machines);
// concurrent callers use one Engine per goroutine, exactly like
// batch.Driver. The zero value is not usable; construct with New or
// NewWith.
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
// kernels; fully finite factors through SMAWK and witness windows.
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
	// so work stealing evens out rows of unequal cost, and minBlockRows
	// keeps a block tall enough that its first row, solved by the
	// kernel over the whole inner range, stays a small share of it.
	blocksPerWorker = 4
	minBlockRows    = 16
	// maxTransposeBytes caps the temporary transposed copy of B: 32 MiB
	// (a 2048x2048 factor) bounds what one product adds to the heap.
	maxTransposeBytes = 32 << 20
	// transposeTile is how many rows of B's transposed copy one pool
	// iteration fills. The fill reads B row by row across the tile, so
	// the tile's rows of the copy stay in cache.
	transposeTile = 16
	// windowBudget caps an interior row's total window width at
	// windowBudget·(q+r) entries, about what one SMAWK query on the
	// row's slice reads: 3.0-3.7·(q+r) per row on the convex-gap
	// factors perfbench multiplies, against a floor of 2(q-1)+r (REDUCE
	// compares every column after the first, two reads a comparison,
	// and INTERPOLATE reads every answer). A wider row goes to the
	// kernel. A window read is a step of a tight loop, a SMAWK read an
	// interface call, so the budget errs wide.
	windowBudget = 3
)

// serialPool is the width-1 pool a PRAM driver's product fills B's
// transposed copy on: one-worker pools run inline and never start a
// goroutine.
var serialPool = exec.NewPool(1)

// counters returns the process observer's "minplus" site, or nil when
// observation is off (one atomic pointer load per product).
func counters() *obs.Counters {
	if o := obs.Global(); o != nil {
		return o.Site("minplus")
	}
	return nil
}

// slice is the row-minima query of one output row i over the inner
// columns [off, off+len(arow)): the r x len(arow) array W_i[k][j] =
// A[i][off+j] + B[off+j][k], with that part of A's row i hoisted into
// arow and B read through its dense transpose bt when the engine made
// one. Both operands are the factors' own entries, so every value is
// the same float sum the naive oracle forms.
type slice struct {
	arow []float64
	off  int
	b    marray.Matrix
	bt   *marray.Dense // B transposed, or nil to read b directly
}

func (s *slice) Rows() int { return s.b.Cols() }
func (s *slice) Cols() int { return len(s.arow) }
func (s *slice) At(k, j int) float64 {
	if s.bt != nil {
		return s.arow[j] + s.bt.At(k, s.off+j)
	}
	return s.arow[j] + s.b.At(s.off+j, k)
}

// tally is a slice that counts the entries read and records whether
// any was +Inf. It is not safe for concurrent reads, so only the
// single-goroutine native kernel queries run on it. At repeats
// slice.At's body so the kernel's every read stays one call.
type tally struct {
	slice
	reads   int64
	blocked bool
}

func (t *tally) At(k, j int) float64 {
	t.reads++
	var v float64
	if t.bt != nil {
		v = t.arow[j] + t.bt.At(k, t.off+j)
	} else {
		v = t.arow[j] + t.b.At(t.off+j, k)
	}
	if v == inf {
		t.blocked = true
	}
	return v
}

// band is the run-length encoding of a contiguous range of output rows
// and the scratch that solves them: the slice the kernel reads, the
// witness rows of the divide and conquer's midpoints (one per depth),
// the runs, and ends[t], the run count after the range's t-th row.
type band struct {
	ctx        context.Context
	row        []float64 // A's row being solved
	w          tally
	in         marray.Matrix              // what the kernel reads: &w, or &w.slice
	query      func(marray.Matrix, []int) // the row-minima kernel
	windowed   bool                       // false: every row goes to the kernel
	stack      [][]int
	runK, runJ []int32
	ends       []int32
	kernelRows int64 // rows the kernel solved
	scanned    int64 // B entries the window scans read
}

// newBand returns a band of len(ends) output rows of a product with
// right factor b (bt its transposed copy or nil) and inner dimension q.
func newBand(ctx context.Context, b marray.Matrix, bt *marray.Dense, q int, ends []int32, query func(marray.Matrix, []int), windowed bool) *band {
	bd := &band{
		ctx:      ctx,
		row:      make([]float64, q),
		w:        tally{slice: slice{b: b, bt: bt}},
		query:    query,
		windowed: windowed,
		runK:     make([]int32, 0, 2*len(ends)),
		runJ:     make([]int32, 0, 2*len(ends)),
		ends:     ends,
	}
	bd.in = &bd.w
	return bd
}

// hoist copies A[i][c0..c1] into bd.row[c0..c1].
func (bd *band) hoist(a marray.Matrix, i, c0, c1 int) {
	for j := c0; j <= c1; j++ {
		bd.row[j] = a.At(i, j)
	}
}

// kernel solves output row i with the row-minima kernel over the inner
// columns [c0, c1], which hold every finite witness of the row, into
// wit, and normalizes +Inf entries to witness -1. On a windowed band
// the kernel is SMAWK, whose INTERPOLATE step reads every answer it
// returns, so a query that read no +Inf returned none and skips the r
// reads of the check.
func (bd *band) kernel(a marray.Matrix, i int, wit []int, c0, c1 int) {
	bd.hoist(a, i, c0, c1)
	bd.w.arow, bd.w.off = bd.row[c0:c1+1], c0
	bd.w.blocked = false
	bd.query(bd.in, wit)
	if bd.w.blocked || !bd.windowed {
		for k, j := range wit {
			if j >= 0 && bd.in.At(k, j) == inf {
				wit[k] = -1
			}
		}
	}
	if c0 > 0 {
		for k, j := range wit {
			if j >= 0 {
				wit[k] = j + c0
			}
		}
	}
	bd.kernelRows++
}

// solve finds the witnesses of output row i, which lies between the
// solved rows whose witnesses are wlo (above) and whi (below). Both
// factors Monge makes the finite witnesses j*(i,k) nondecreasing in i
// and in k, so j*(i,k) lies in the window [max(wlo[k], p), whi[k]],
// where p is row i's last finite witness left of k. A -1 (blocked)
// witness bounds nothing: its side of the window opens to the inner
// range. Each window is a leftmost scan of the hoisted A row against
// B's column k. A row whose windows, bounded by wlo and whi alone,
// span more than windowBudget·(q+r) entries goes to the kernel
// instead, over the columns the windows span; so does every row of a
// staircase product, over all of them.
func (bd *band) solve(a marray.Matrix, i int, wlo, whi, wit []int) {
	if bd.ctx != nil && bd.ctx.Err() != nil {
		merr.Throw(merr.Canceled(bd.ctx.Err()))
	}
	q := len(bd.row)
	if !bd.windowed {
		bd.kernel(a, i, wit, 0, q-1)
		return
	}
	width, c0, c1 := windowWidth(wlo, whi, q)
	if width > windowBudget*int64(q+len(wit)) {
		bd.kernel(a, i, wit, c0, c1)
		return
	}
	bd.hoist(a, i, c0, c1)
	arow, b, bt := bd.row, bd.w.b, bd.w.bt
	prev := 0 // the last finite witness of this row
	for k := range wit {
		lo, hi := max(prev, wlo[k]), q-1
		if whi[k] >= 0 {
			hi = whi[k]
		}
		best, bj := inf, -1
		if hi >= lo {
			if bt != nil {
				col := bt.RowView(k)[lo : hi+1]
				for j, x := range arow[lo : hi+1] {
					if v := x + col[j]; v < best {
						best, bj = v, lo+j
					}
				}
			} else {
				for j := lo; j <= hi; j++ {
					if v := arow[j] + b.At(j, k); v < best {
						best, bj = v, j
					}
				}
			}
			bd.scanned += int64(hi - lo + 1)
		}
		wit[k] = bj
		if bj >= 0 {
			prev = bj
		}
	}
}

// windowWidth returns the total width of the windows [wlo[k], whi[k]]
// over an inner range of q, blocked bounds opened as solve opens them,
// and the columns [c0, c1] they span.
func windowWidth(wlo, whi []int, q int) (w int64, c0, c1 int) {
	c0, c1 = q-1, 0
	for k, lo := range wlo {
		lo, hi := max(lo, 0), q-1
		if whi[k] >= 0 {
			hi = whi[k]
		}
		if hi >= lo {
			w += int64(hi - lo + 1)
		}
		c0, c1 = min(c0, lo), max(c1, hi)
	}
	return w, min(c0, c1), c1
}

// fill solves the output rows strictly between the solved rows lo and
// hi (witnesses wlo and whi) by divide and conquer, midpoint first, so
// every row's windows are bounded by its nearest solved neighbours. It
// emits the rows in row order; base is the band's first row.
func (bd *band) fill(a marray.Matrix, base, lo, hi int, wlo, whi []int, depth int) {
	if hi-lo < 2 {
		return
	}
	if depth == len(bd.stack) {
		bd.stack = append(bd.stack, make([]int, len(wlo)))
	}
	mid, wmid := lo+(hi-lo)/2, bd.stack[depth]
	bd.solve(a, mid, wlo, whi, wmid)
	bd.fill(a, base, lo, mid, wlo, wmid, depth+1)
	bd.emit(mid-base, wmid)
	bd.fill(a, base, mid, hi, wmid, whi, depth+1)
}

// emit run-length encodes the witnesses of the band's t-th row: a run
// break wherever the argmin row of B changes.
func (bd *band) emit(t int, wit []int) {
	prev := int32(math.MinInt32)
	for k, wj := range wit {
		if j := int32(wj); j != prev {
			bd.runK = append(bd.runK, int32(k))
			bd.runJ = append(bd.runJ, j)
			prev = j
		}
	}
	bd.ends[t] = int32(len(bd.runK))
}

// count adds the band's work to the "minplus" site (nil: observation
// off).
func (bd *band) count(ct *obs.Counters) {
	if ct == nil {
		return
	}
	ct.Add(obs.MinplusAnchorRows, bd.kernelRows)
	ct.Add(obs.MinplusWindowReads, bd.w.reads+bd.scanned)
	ct.Add(obs.MinplusRuns, int64(len(bd.runK)))
}

// multiply is the shared core: stair selects the staircase kernel and
// turns the witness windows off. On a native driver it solves the
// output rows by row blocks and witness windows as the package comment
// describes; a PRAM driver solves every row with one kernel query
// through the driver, the oracle the windows are tested against. The
// M-link solver calls it with stair=false on its triangular matrices
// (see the package comment).
func (e *Engine) multiply(a, b marray.Matrix, stair bool) *Product {
	m, q, r := a.Rows(), a.Cols(), b.Cols()
	p := &Product{m: m, r: r, a: a, b: b, rowStart: make([]int32, m+1)}
	ct := counters()
	pool, ctx := e.d.Fanout()
	if pool == nil {
		query := e.d.RowMinimaInto
		if stair {
			query = e.d.StaircaseRowMinimaInto
		}
		bd := newBand(ctx, b, transposeB(ctx, serialPool, b, m), q, p.rowStart[1:], query, false)
		bd.in = &bd.w.slice // the simulated processors read it concurrently
		wit := make([]int, r)
		for i := 0; i < m; i++ {
			bd.kernel(a, i, wit, 0, q-1)
			bd.emit(i, wit)
		}
		bd.count(ct)
		p.runK, p.runJ = bd.runK, bd.runJ
		return p
	}

	bt := transposeB(ctx, pool, b, m)
	kernel := native.RowMinimaInto
	if stair {
		kernel = native.StaircaseRowMinimaInto
	}
	query := func(w marray.Matrix, out []int) { kernel(ctx, w, out) }
	nb := rowBlocks(pool, m)
	first := func(t int) int { return t * m / nb } // block t is rows [first(t), first(t+1))
	bands := make([]*band, nb)
	for t := range bands {
		bands[t] = newBand(ctx, b, bt, q, make([]int32, first(t+1)-first(t)), query, !stair)
	}
	// anchor[t] holds the witnesses of row first(t); anchor[nb] those
	// of row m-1, which bounds the last block from below.
	anchor := make([][]int, nb+1)
	wb := make([]int, (nb+1)*r)
	for t := range anchor {
		anchor[t] = wb[t*r : (t+1)*r : (t+1)*r]
	}
	last := first(nb - 1)
	runLoop(ctx, pool, nb, func(t int) {
		bands[t].kernel(a, first(t), anchor[t], 0, q-1)
		if t == nb-1 && m-1 > last {
			bands[t].kernel(a, m-1, anchor[nb], 0, q-1)
		}
	})
	if m-1 == last {
		anchor[nb] = anchor[nb-1]
	}
	runLoop(ctx, pool, nb, func(t int) {
		bd, lo, hi := bands[t], first(t), first(t+1)
		if t == nb-1 {
			hi = m - 1
		}
		bd.emit(0, anchor[t])
		bd.fill(a, lo, lo, hi, anchor[t], anchor[t+1], 0)
		if t == nb-1 && hi > lo {
			bd.emit(hi-lo, anchor[nb])
		}
		bd.count(ct)
	})

	total := 0
	for _, bd := range bands {
		total += len(bd.runK)
	}
	p.runK = make([]int32, 0, total)
	p.runJ = make([]int32, 0, total)
	for t, bd := range bands {
		base, lo := int32(len(p.runK)), first(t)
		for s, end := range bd.ends {
			p.rowStart[lo+s+1] = base + end
		}
		p.runK = append(p.runK, bd.runK...)
		p.runJ = append(p.runJ, bd.runJ...)
	}
	return p
}

// rowBlocks returns how many output-row blocks a product of m rows
// runs as on pool.
func rowBlocks(pool *exec.Pool, m int) int {
	return max(1, min(m/minBlockRows, blocksPerWorker*pool.Workers()))
}

// runLoop runs body(t) for t in [0, n) as one Grain=1 loop on pool,
// inline on a one-worker pool. A panic in a body (a factor's typed
// failure, say) is re-thrown on the calling goroutine, and a done ctx
// as merr.ErrCanceled.
func runLoop(ctx context.Context, pool *exec.Pool, n int, body func(t int)) {
	fails := make([]any, n)
	_, err := pool.Run(exec.Loop{
		N: n, Grain: 1, Ctx: ctx,
		Body: func(t int) {
			defer func() { fails[t] = recover() }()
			body(t)
		},
	})
	for _, f := range fails {
		if f != nil {
			panic(f)
		}
	}
	if err != nil {
		merr.Throw(merr.Canceled(err))
	}
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

// transposeB returns B's dense transposed copy, filled as one loop of
// row tiles on pool, or nil where transposePays says the slices read B
// directly. The copy lives only for the calling product.
func transposeB(ctx context.Context, pool *exec.Pool, b marray.Matrix, m int) *marray.Dense {
	q, r := b.Rows(), b.Cols()
	if !transposePays(m, q, r) {
		return nil
	}
	bt := marray.NewDense(r, q)
	runLoop(ctx, pool, (r+transposeTile-1)/transposeTile, func(t int) {
		k0, k1 := t*transposeTile, min((t+1)*transposeTile, r)
		for j := 0; j < q; j++ {
			for k := k0; k < k1; k++ {
				bt.Set(k, j, b.At(j, k))
			}
		}
	})
	return bt
}

// Product is the run-sparse (core) representation of a (min,+)
// product: per output row, the columns where the witness (the argmin
// row of B) changes, plus the retained factors. Entries are recomputed
// on demand as A[i][j*] + B[j*][k], so a Product implements
// marray.Matrix and can itself be a factor of the next multiplication
// — a chain of products never materializes an n x n value array. Safe
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
