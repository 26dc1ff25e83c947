// Package native is the direct execution backend: the same three
// searching kernels the simulated PRAM serves — SMAWK row minima,
// staircase-Monge row minima, and tube maxima — run straight on
// goroutines, with no charged supersteps and no simulated shared memory.
// The PRAM path is the product of the paper's machine models; this
// package is the serving engine, and the simulators become its
// conformance oracle: every kernel here is differentially tested to be
// index-exact with the PRAM answers (TestNativeMatchesPRAM, the fuzz
// harnesses, and the concurrent serve suite).
//
// # Why index-exactness is structural, not lucky
//
// Each row's leftmost optimum is a per-row function of the input — rows
// interact only for algorithmic speed, never for the answer. The kernels
// therefore partition the row space (the i-slice space, for tubes) into
// contiguous blocks and run the sequential internal/smawk solvers on
// each block: any row subset of a (staircase-)Monge array is
// (staircase-)Monge, and every block solver applies the same leftmost
// tie-breaking rule the PRAM algorithms are pinned to, so the
// concatenated answers equal the whole-array answers column for column.
//
// # Execution shape
//
// Dispatch splits by area, merge-path style: every work-stealing chunk
// covers roughly the same number of array entries, regardless of the
// query's aspect ratio. A parlay-style area threshold keeps small
// queries serial — below serialArea the dispatch overhead of any
// fan-out exceeds the kernel itself, so the query runs inline on the
// calling goroutine. Above it, rows are cut into blocks of
// chunkArea/n rows (capped at blockRows so a block stays one cache
// tile) and dispatched as one work-stealing loop on an
// internal/exec.Pool with Grain=1. When that yields fewer row chunks
// than workers — the huge-aspect regime, down to a single 1xn row —
// dispatch additionally splits columns into balanced segments, scans
// each (row block, segment) chunk independently into per-segment
// partial minima, and combines the partials sequentially in ascending
// column order, which preserves the leftmost tie rule exactly. Dense
// inputs run the shared branchless argmin kernels (internal/smawk
// scan.go) over zero-copy row views, both for narrow whole-row scans
// and for column segments. All recursion scratch comes from the pooled
// internal/scratch arenas behind smawk.RowMinimaInto, so a query
// allocates only its answer slice (plus one partials slice on the
// column-split path).
//
// Cancellation is cooperative: a done context aborts between blocks and
// the kernel throws merr.ErrCanceled, exactly as the simulated machines
// do at their superstep boundaries. Counters land on the process
// observer's "native" site.
package native

import (
	"context"

	"monge/internal/exec"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/obs"
	"monge/internal/smawk"
)

const (
	// serialArea is the query area (rows x cols) below which the kernel
	// runs inline: a fan-out costs a publish plus one atomic claim per
	// chunk, which only pays for itself once the scanned area dwarfs it.
	// 8192 entries keeps every pre-split shape that ran serially (up to
	// 128 rows at the old 64-column benchmark width) serial.
	serialArea = 8192
	// chunkArea is the target area of one work-stealing chunk: a row
	// block is chunkArea/n rows, so chunks carry equal work whether the
	// query is 1024x1024 or 4x262144.
	chunkArea = 1 << 16
	// blockRows caps the row-block height of the parallel split. 64
	// rows keeps a block's answer range and the SMAWK scratch within a
	// few KB — one block is one cache tile and one work-stealing unit.
	blockRows = 64
	// segMinCols is the narrowest column segment the huge-aspect split
	// will create: below ~512 columns the per-chunk claim and the
	// combine pass outweigh the scan itself.
	segMinCols = 512
	// serialSlices / blockSlices are the tube analogues: a tube i-slice
	// costs a full SMAWK pass over an r x q slice, so slices are coarser
	// units than rows and fan out at smaller counts.
	serialSlices = 16
	blockSlices  = 4
)

// counters returns the process observer's "native" site, or nil when
// observation is off (the disabled path is one atomic pointer load).
func counters() *obs.Counters {
	if o := obs.Global(); o != nil {
		return o.Site("native")
	}
	return nil
}

// checkShape rejects degenerate query shapes with the same typed error
// on every path, so backend choice can never change error behavior.
func checkShape(what string, m, n int) {
	if m <= 0 || n <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"native: %s on %dx%d array; both dimensions must be positive", what, m, n)
	}
}

// checkCtx throws merr.ErrCanceled if ctx is already done, mirroring the
// superstep-boundary cancellation of the simulated machines.
func checkCtx(ctx context.Context) {
	if ctx != nil && ctx.Err() != nil {
		merr.Throw(merr.Canceled(ctx.Err()))
	}
}

// RowMinima returns the leftmost row minima of the Monge array a,
// index-exact with the PRAM backend. pool supplies the fan-out workers
// (nil means the shared exec.Default pool); ctx, when non-nil, cancels
// between row blocks with merr.ErrCanceled.
func RowMinima(ctx context.Context, pool *exec.Pool, a marray.Matrix) []int {
	out := make([]int, a.Rows())
	RowMinimaInto(ctx, pool, a, out)
	return out
}

// RowMinimaInto is RowMinima writing into a caller-provided slice of
// length >= a.Rows(), so query streams (the min-plus multiplication
// engine runs one per output row) allocate nothing per call.
func RowMinimaInto(ctx context.Context, pool *exec.Pool, a marray.Matrix, out []int) {
	m, n := a.Rows(), a.Cols()
	checkShape("RowMinima", m, n)
	checkOut("RowMinima", len(out), m)
	solve := func(lo, hi int) {
		smawk.RowMinimaInto(marray.RowBand(a, lo, hi-lo), out[lo:hi])
	}
	if d, ok := a.(*marray.Dense); ok && n <= smawk.DenseScanCols {
		solve = func(lo, hi int) { scanDenseMinima(d, lo, hi, out) }
	}
	runRows(ctx, pool, a, m, n, false, solve, out)
}

// StaircaseRowMinima returns the leftmost finite row minima of the
// staircase-Monge array a (-1 for fully blocked rows), index-exact with
// the PRAM backend.
func StaircaseRowMinima(ctx context.Context, pool *exec.Pool, a marray.Matrix) []int {
	out := make([]int, a.Rows())
	StaircaseRowMinimaInto(ctx, pool, a, out)
	return out
}

// StaircaseRowMinimaInto is StaircaseRowMinima writing into a
// caller-provided slice of length >= a.Rows().
func StaircaseRowMinimaInto(ctx context.Context, pool *exec.Pool, a marray.Matrix, out []int) {
	m, n := a.Rows(), a.Cols()
	checkShape("StaircaseRowMinima", m, n)
	checkOut("StaircaseRowMinima", len(out), m)
	solve := func(lo, hi int) {
		smawk.StaircaseRowMinimaInto(marray.RowBand(a, lo, hi-lo), out[lo:hi])
	}
	if d, ok := a.(*marray.Dense); ok && n <= smawk.DenseScanCols {
		solve = func(lo, hi int) { scanDenseStairMinima(d, lo, hi, out) }
	}
	runRows(ctx, pool, a, m, n, true, solve, out)
}

// checkOut rejects an answer slice shorter than the row count with the
// same typed error the shape checks use.
func checkOut(what string, have, want int) {
	if have < want {
		merr.Throwf(merr.ErrDimensionMismatch,
			"native: %s answer slice holds %d rows, query has %d", what, have, want)
	}
}

// TubeMaxima solves the tube-maxima problem for the Monge-composite
// array c, index-exact with the PRAM backend: argJ[i][k] is the smallest
// maximising middle coordinate, vals[i][k] = c.At(i, argJ[i][k], k).
// The i-slices are independent (slice i is one Monge row-maxima problem
// over W_i[k][j] = d[i,j] + e[j,k]) and fan out across the pool.
func TubeMaxima(ctx context.Context, pool *exec.Pool, c marray.Composite) ([][]int, [][]float64) {
	p, q, r := c.P(), c.Q(), c.R()
	if p <= 0 || q <= 0 || r <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"native: TubeMaxima on %dx%dx%d composite; all dimensions must be positive", p, q, r)
	}
	// One backing array per output so a p-slice query costs four
	// allocations plus the row headers, regardless of p.
	argJ := make([][]int, p)
	vals := make([][]float64, p)
	jb := make([]int, p*r)
	vb := make([]float64, p*r)
	for i := range argJ {
		argJ[i] = jb[i*r : (i+1)*r : (i+1)*r]
		vals[i] = vb[i*r : (i+1)*r : (i+1)*r]
	}
	solve := func(i int) {
		wi := marray.Func{M: r, N: q, F: func(k, j int) float64 {
			return c.D.At(i, j) + c.E.At(j, k)
		}}
		smawk.MongeRowMaximaInto(wi, argJ[i])
		for k := 0; k < r; k++ {
			vals[i][k] = c.At(i, argJ[i][k], k)
		}
	}
	ct := counters()
	ct.Add(obs.Searches, 1)
	if pool == nil {
		pool = exec.Default()
	}
	if p <= serialSlices || pool.Workers() <= 1 {
		checkCtx(ctx)
		for i := 0; i < p; i++ {
			solve(i)
		}
		countRun(ct, exec.RunResult{Chunks: 1})
		return argJ, vals
	}
	res, err := pool.Run(exec.Loop{N: p, Grain: blockSlices, Ctx: ctx, Body: solve})
	countRun(ct, res)
	if err != nil {
		merr.Throw(merr.Canceled(err))
	}
	return argJ, vals
}

// runRows executes solve over [0, m) — inline below the serial area
// cutoff or on a one-worker pool, otherwise as area-balanced row
// blocks stolen from the pool, falling through to a column-segment
// split when the query is too flat for row blocks alone to feed every
// worker — and folds the dispatch shape into the "native" obs site.
func runRows(ctx context.Context, pool *exec.Pool, a marray.Matrix, m, n int, stair bool, solve func(lo, hi int), out []int) {
	ct := counters()
	ct.Add(obs.Searches, 1)
	if pool == nil {
		pool = exec.Default()
	}
	w := pool.Workers()
	if int64(m)*int64(n) <= serialArea || w <= 1 {
		checkCtx(ctx)
		solve(0, m)
		countRun(ct, exec.RunResult{Chunks: 1})
		return
	}
	rowsPer := chunkArea / n
	if rowsPer < 1 {
		rowsPer = 1
	}
	if rowsPer > blockRows {
		rowsPer = blockRows
	}
	rowChunks := (m + rowsPer - 1) / rowsPer
	if rowChunks < w && n >= 2*segMinCols {
		runColSegments(ctx, pool, ct, a, m, n, rowsPer, rowChunks, w, stair, out)
		return
	}
	res, err := pool.Run(exec.Loop{
		N: rowChunks, Grain: 1, Ctx: ctx,
		Body: func(b int) {
			lo := b * rowsPer
			hi := min(lo+rowsPer, m)
			solve(lo, hi)
		},
	})
	countRun(ct, res)
	if err != nil {
		merr.Throw(merr.Canceled(err))
	}
}

// runColSegments is the huge-aspect arm of the merge-path split: the
// row blocks alone cannot feed every worker (down to one block for a
// 1xn query), so each row block is further cut into column segments of
// equal width and every (row block, segment) pair becomes one
// work-stealing chunk. Workers write the leftmost minimum of each
// (row, segment) into a partials table; the combine pass then folds
// each row's partials in ascending column order under strict less,
// which is exactly the leftmost rule. The combine is sequential and
// touches m x segments entries — negligible against the m x n scanned.
func runColSegments(ctx context.Context, pool *exec.Pool, ct *obs.Counters, a marray.Matrix, m, n, rowsPer, rowChunks, w int, stair bool, out []int) {
	// Aim for a few chunks per worker so stealing can balance uneven
	// segment costs, bounded by the narrowest segment worth claiming.
	segs := (4*w + rowChunks - 1) / rowChunks
	if maxSegs := n / segMinCols; segs > maxSegs {
		segs = maxSegs
	}
	segW := (n + segs - 1) / segs
	part := make([]int, m*segs)
	d, _ := a.(*marray.Dense)
	res, err := pool.Run(exec.Loop{
		N: rowChunks * segs, Grain: 1, Ctx: ctx,
		Body: func(t int) {
			b, sg := t/segs, t%segs
			lo, hi := b*rowsPer, min(b*rowsPer+rowsPer, m)
			c0, c1 := sg*segW, min(sg*segW+segW, n)
			for i := lo; i < hi; i++ {
				part[i*segs+sg] = segmentArgMin(a, d, stair, i, c0, c1)
			}
		},
	})
	countRun(ct, res)
	if err != nil {
		merr.Throw(merr.Canceled(err))
	}
	for i := 0; i < m; i++ {
		best, bv := -1, 0.0
		for sg := 0; sg < segs; sg++ {
			c := part[i*segs+sg]
			if c < 0 {
				continue
			}
			if v := a.At(i, c); best < 0 || ltTotal(v, bv) {
				best, bv = c, v
			}
		}
		out[i] = best
	}
}

// countRun folds one kernel dispatch into the native obs site.
func countRun(ct *obs.Counters, res exec.RunResult) {
	if ct == nil {
		return
	}
	ct.Add(obs.PoolLoops, 1)
	ct.Add(obs.PoolChunks, int64(res.Chunks))
	if res.Chunks == 1 {
		ct.Add(obs.PoolInline, 1)
	}
}
