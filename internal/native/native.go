// Package native is the direct execution backend: the same three
// searching kernels the simulated PRAM serves — SMAWK row minima,
// staircase-Monge row minima, and tube maxima — run straight on the
// calling goroutine, with no charged supersteps and no simulated shared
// memory. The PRAM path is the product of the paper's machine models;
// this package is the serving engine, and the simulators become its
// conformance oracle: every kernel here is differentially tested to be
// index-exact with the PRAM answers (TestNativeMatchesPRAM, the fuzz
// harnesses, and the concurrent serve suite).
//
// # Why index-exactness is structural, not lucky
//
// Each row's leftmost optimum is a per-row function of the input — rows
// interact only for algorithmic speed, never for the answer. The
// sequential internal/smawk solvers apply the same leftmost
// tie-breaking rule the PRAM algorithms are pinned to, so their answers
// equal the PRAM's column for column.
//
// # Execution shape
//
// Every query is one inline call to the sequential solver on the whole
// input, so a query reads what the solver reads: O(m+n) entries for
// SMAWK row minima, one SMAWK pass per i-slice for tube maxima. Narrow
// dense inputs take the solvers' own branchless row scans. Recursion
// scratch comes from the pooled internal/scratch arenas behind
// smawk.RowMinimaInto, so a query allocates only its answer slice.
// Concurrency comes from above the kernel: every serve worker runs its
// own queries, and the min-plus engine splits a product into row blocks.
//
// Cancellation is checked once per query: a done context makes the
// kernel throw merr.ErrCanceled before it reads the input. Each query
// counts one search on the process observer's "native" site.
package native

import (
	"context"

	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/obs"
	"monge/internal/smawk"
)

// begin is the per-query entry of every kernel: it throws
// merr.ErrCanceled if ctx is already done and counts one search on the
// process observer's "native" site (a nil observer costs one atomic
// pointer load).
func begin(ctx context.Context) {
	if ctx != nil && ctx.Err() != nil {
		merr.Throw(merr.Canceled(ctx.Err()))
	}
	if o := obs.Global(); o != nil {
		o.Site("native").Add(obs.Searches, 1)
	}
}

// checkShape rejects degenerate query shapes with the same typed error
// on every path, so backend choice can never change error behavior.
func checkShape(what string, m, n int) {
	if m <= 0 || n <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"native: %s on %dx%d array; both dimensions must be positive", what, m, n)
	}
}

// checkOut rejects an answer slice shorter than the row count with the
// same typed error the shape checks use.
func checkOut(what string, have, want int) {
	if have < want {
		merr.Throwf(merr.ErrDimensionMismatch,
			"native: %s answer slice holds %d rows, query has %d", what, have, want)
	}
}

// RowMinima returns the leftmost row minima of the Monge array a,
// index-exact with the PRAM backend. ctx, when non-nil and done, makes
// the call throw merr.ErrCanceled.
func RowMinima(ctx context.Context, a marray.Matrix) []int {
	out := make([]int, a.Rows())
	RowMinimaInto(ctx, a, out)
	return out
}

// RowMinimaInto is RowMinima writing into a caller-provided slice of
// length >= a.Rows(), so query streams (the min-plus multiplication
// engine runs one per output row) allocate nothing per call.
func RowMinimaInto(ctx context.Context, a marray.Matrix, out []int) {
	checkShape("RowMinima", a.Rows(), a.Cols())
	checkOut("RowMinima", len(out), a.Rows())
	begin(ctx)
	smawk.RowMinimaInto(a, out)
}

// StaircaseRowMinima returns the leftmost finite row minima of the
// staircase-Monge array a (-1 for fully blocked rows), index-exact with
// the PRAM backend.
func StaircaseRowMinima(ctx context.Context, a marray.Matrix) []int {
	out := make([]int, a.Rows())
	StaircaseRowMinimaInto(ctx, a, out)
	return out
}

// StaircaseRowMinimaInto is StaircaseRowMinima writing into a
// caller-provided slice of length >= a.Rows().
func StaircaseRowMinimaInto(ctx context.Context, a marray.Matrix, out []int) {
	checkShape("StaircaseRowMinima", a.Rows(), a.Cols())
	checkOut("StaircaseRowMinima", len(out), a.Rows())
	begin(ctx)
	smawk.StaircaseRowMinimaInto(a, out)
}

// TubeMaxima solves the tube-maxima problem for the Monge-composite
// array c, index-exact with the PRAM backend: argJ[i][k] is the smallest
// maximising middle coordinate, vals[i][k] = c.At(i, argJ[i][k], k).
// Slice i is one Monge row-maxima problem over
// W_i[k][j] = d[i,j] + e[j,k], solved by SMAWK.
func TubeMaxima(ctx context.Context, c marray.Composite) ([][]int, [][]float64) {
	p, q, r := c.P(), c.Q(), c.R()
	if p <= 0 || q <= 0 || r <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"native: TubeMaxima on %dx%dx%d composite; all dimensions must be positive", p, q, r)
	}
	begin(ctx)
	// One backing array per output so a p-slice query costs four
	// allocations plus the row headers, regardless of p.
	argJ := make([][]int, p)
	vals := make([][]float64, p)
	jb := make([]int, p*r)
	vb := make([]float64, p*r)
	for i := range argJ {
		argJ[i] = jb[i*r : (i+1)*r : (i+1)*r]
		vals[i] = vb[i*r : (i+1)*r : (i+1)*r]
		wi := marray.Func{M: r, N: q, F: func(k, j int) float64 {
			return c.D.At(i, j) + c.E.At(j, k)
		}}
		smawk.MongeRowMaximaInto(wi, argJ[i])
		for k := 0; k < r; k++ {
			vals[i][k] = c.At(i, argJ[i][k], k)
		}
	}
	return argJ, vals
}
