// Package marray provides the array abstractions underlying all searching
// algorithms in this repository: implicit (function-backed) and dense
// two-dimensional arrays, staircase variants whose blocked entries are +Inf,
// three-dimensional Monge-composite views, adapters that convert between the
// row-minima and row-maxima problems, and property predicates used by tests.
//
// Terminology follows Aggarwal, Kravets, Park, and Sen (SPAA 1990):
//
//   - An m x n array A is Monge if a[i,j] + a[k,l] <= a[i,l] + a[k,j]
//     whenever i < k and j < l.
//   - A is inverse-Monge if the inequality is flipped.
//   - A staircase-Monge array may contain +Inf entries, closed to the right
//     and downward, with the Monge inequality required only when all four
//     entries involved are finite.
//   - A p x q x r Monge-composite array has c[i,j,k] = d[i,j] + e[j,k] for
//     Monge arrays D and E.
//
// All algorithms in this repository access arrays through the Matrix
// interface, so entries may be computed on demand in O(1) time, exactly as
// the paper's PRAM model assumes.
package marray

import (
	"math"

	"monge/internal/merr"
)

// Inf is the sentinel used for blocked entries of staircase arrays.
var Inf = math.Inf(1)

// Matrix is a read-only two-dimensional array whose entries can be computed
// on demand. Implementations must be safe for concurrent calls to At: the
// parallel machines in this repository evaluate entries from many goroutines.
type Matrix interface {
	// Rows returns the number of rows m.
	Rows() int
	// Cols returns the number of columns n.
	Cols() int
	// At returns the entry in row i, column j, both zero-based.
	At(i, j int) float64
}

// Func is an implicit matrix backed by a function. It is the workhorse
// representation: entries are computed on demand, never stored.
type Func struct {
	M, N int
	F    func(i, j int) float64
}

// Rows returns the number of rows.
func (f Func) Rows() int { return f.M }

// Cols returns the number of columns.
func (f Func) Cols() int { return f.N }

// At returns F(i, j).
func (f Func) At(i, j int) float64 { return f.F(i, j) }

// Dense is a fully materialized matrix.
type Dense struct {
	m, n int
	data []float64
}

// NewDense returns an m x n dense matrix with all entries zero.
func NewDense(m, n int) *Dense {
	if m < 0 || n < 0 {
		merr.Throwf(merr.ErrDimensionMismatch, "marray: NewDense(%d, %d): negative dimension", m, n)
	}
	return &Dense{m: m, n: n, data: make([]float64, m*n)}
}

// DenseOf wraps data, an m x n matrix stored row-major, without copying
// it: the matrix owns data from then on, and the caller must not write
// to it. It is how a decoder that parses entries straight into one flat
// slice hands them over.
func DenseOf(m, n int, data []float64) *Dense {
	if m < 0 || n < 0 || len(data) != m*n {
		merr.Throwf(merr.ErrDimensionMismatch, "marray: DenseOf(%d, %d): %d entries, want %d x %d", m, n, len(data), m, n)
	}
	return &Dense{m: m, n: n, data: data}
}

// FromRows builds a dense matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	m := len(rows)
	n := 0
	if m > 0 {
		n = len(rows[0])
	}
	d := NewDense(m, n)
	for i, r := range rows {
		if len(r) != n {
			merr.Throwf(merr.ErrDimensionMismatch, "marray: FromRows: row %d has length %d, want %d", i, len(r), n)
		}
		copy(d.data[i*n:(i+1)*n], r)
	}
	return d
}

// Materialize copies an arbitrary Matrix into a Dense one.
func Materialize(a Matrix) *Dense {
	d := NewDense(a.Rows(), a.Cols())
	for i := 0; i < d.m; i++ {
		for j := 0; j < d.n; j++ {
			d.Set(i, j, a.At(i, j))
		}
	}
	return d
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.m }

// Cols returns the number of columns.
func (d *Dense) Cols() int { return d.n }

// At returns the entry in row i, column j.
func (d *Dense) At(i, j int) float64 { return d.data[i*d.n+j] }

// Set assigns the entry in row i, column j.
func (d *Dense) Set(i, j int, v float64) { d.data[i*d.n+j] = v }

// Row returns a copy of row i.
func (d *Dense) Row(i int) []float64 {
	out := make([]float64, d.n)
	copy(out, d.data[i*d.n:(i+1)*d.n])
	return out
}

// RowView returns row i as a zero-copy slice sharing the matrix's
// backing store. Callers must treat it as read-only; the native
// backend's dense scan kernels use it to stream rows without the
// per-entry At indirection.
func (d *Dense) RowView(i int) []float64 { return d.data[i*d.n : (i+1)*d.n] }

// transposed flips rows and columns.
type transposed struct{ a Matrix }

func (t transposed) Rows() int           { return t.a.Cols() }
func (t transposed) Cols() int           { return t.a.Rows() }
func (t transposed) At(i, j int) float64 { return t.a.At(j, i) }

// Transpose returns a view of a with rows and columns exchanged. The
// transpose of a Monge array is Monge; of an inverse-Monge array,
// inverse-Monge.
func Transpose(a Matrix) Matrix {
	if t, ok := a.(transposed); ok {
		return t.a
	}
	return transposed{a}
}

// negated flips the sign of every entry.
type negated struct{ a Matrix }

func (t negated) Rows() int           { return t.a.Rows() }
func (t negated) Cols() int           { return t.a.Cols() }
func (t negated) At(i, j int) float64 { return -t.a.At(i, j) }

// Negate returns a view of a with every entry negated. Negation exchanges
// the Monge and inverse-Monge properties and exchanges the row-minima and
// row-maxima problems.
func Negate(a Matrix) Matrix {
	if t, ok := a.(negated); ok {
		return t.a
	}
	return negated{a}
}

// colReversed reverses the column order.
type colReversed struct{ a Matrix }

func (t colReversed) Rows() int           { return t.a.Rows() }
func (t colReversed) Cols() int           { return t.a.Cols() }
func (t colReversed) At(i, j int) float64 { return t.a.At(i, t.a.Cols()-1-j) }

// ReverseCols returns a view of a with columns in reverse order. Reversal
// exchanges the Monge and inverse-Monge properties while preserving each
// row's multiset of values.
func ReverseCols(a Matrix) Matrix {
	if t, ok := a.(colReversed); ok {
		return t.a
	}
	return colReversed{a}
}

// rowReversed reverses the row order.
type rowReversed struct{ a Matrix }

func (t rowReversed) Rows() int           { return t.a.Rows() }
func (t rowReversed) Cols() int           { return t.a.Cols() }
func (t rowReversed) At(i, j int) float64 { return t.a.At(t.a.Rows()-1-i, j) }

// ReverseRows returns a view of a with rows in reverse order. Reversal
// exchanges the Monge and inverse-Monge properties.
func ReverseRows(a Matrix) Matrix {
	if t, ok := a.(rowReversed); ok {
		return t.a
	}
	return rowReversed{a}
}

// Sub is a rectangular window into a parent matrix.
type Sub struct {
	A            Matrix
	I0, J0, M, N int
}

// Rows returns the window height.
func (s Sub) Rows() int { return s.M }

// Cols returns the window width.
func (s Sub) Cols() int { return s.N }

// At returns the parent entry offset by the window origin.
func (s Sub) At(i, j int) float64 { return s.A.At(s.I0+i, s.J0+j) }

// Window returns the m x n sub-matrix of a whose top-left corner is (i0, j0).
// Any contiguous window of a Monge array is Monge.
func Window(a Matrix, i0, j0, m, n int) Matrix {
	if i0 < 0 || j0 < 0 || m < 0 || n < 0 || i0+m > a.Rows() || j0+n > a.Cols() {
		merr.Throwf(merr.ErrDimensionMismatch, "marray: Window(%d,%d,%d,%d) out of range for %dx%d matrix",
			i0, j0, m, n, a.Rows(), a.Cols())
	}
	return Sub{A: a, I0: i0, J0: j0, M: m, N: n}
}

// stairBand is a full-width row window of a Staircase matrix: the window
// keeps every column, so the parent's precomputed boundary applies
// directly (offset by the window origin) and BoundaryOf stays O(1)
// instead of falling back to per-row binary search.
type stairBand struct {
	Sub
	s Staircase
}

// Boundary returns the parent's boundary for the windowed row.
func (b stairBand) Boundary(i int) int { return b.s.Boundary(b.I0 + i) }

// RowBand returns the m-row, full-width window of a starting at row i0.
// Row windows preserve the Monge, inverse-Monge, and staircase-Monge
// properties (boundaries of a row subset stay nonincreasing), and unlike
// Window the result keeps a Staircase parent's cheap Boundary. The native
// backend cuts queries into these bands for its block-parallel solvers.
// The band of all rows is a itself, so a query solved in one piece
// reads its input without a window indirection per entry.
func RowBand(a Matrix, i0, m int) Matrix {
	if i0 == 0 && m == a.Rows() {
		return a
	}
	w := Window(a, i0, 0, m, a.Cols())
	if s, ok := a.(Staircase); ok {
		return stairBand{Sub: w.(Sub), s: s}
	}
	return w
}

// Staircase describes a two-dimensional array that may contain +Inf entries
// forming a right/down-closed blocked region. Boundary(i) returns the first
// blocked column f_i of row i (== Cols() if row i is fully finite). For a
// valid staircase array Boundary is nonincreasing in i.
type Staircase interface {
	Matrix
	// Boundary returns the smallest j with At(i, j) == +Inf, or Cols() if
	// row i has no blocked entry.
	Boundary(i int) int
}

// StairFunc is an implicit staircase matrix: F supplies finite entries and
// Bound supplies the per-row blocked boundary. At returns +Inf for j >=
// Bound(i) without consulting F.
type StairFunc struct {
	M, N  int
	F     func(i, j int) float64
	Bound func(i int) int
}

// Rows returns the number of rows.
func (s StairFunc) Rows() int { return s.M }

// Cols returns the number of columns.
func (s StairFunc) Cols() int { return s.N }

// At returns the entry, which is +Inf at and beyond the row boundary.
func (s StairFunc) At(i, j int) float64 {
	if j >= s.Bound(i) {
		return Inf
	}
	return s.F(i, j)
}

// Boundary returns the first blocked column of row i.
func (s StairFunc) Boundary(i int) int { return s.Bound(i) }

// BoundaryOf computes the first +Inf column of row i for an arbitrary
// matrix by binary search, assuming the row is (finite..., +Inf...). For
// matrices implementing Staircase the precomputed boundary is returned.
func BoundaryOf(a Matrix, i int) int {
	if s, ok := a.(Staircase); ok {
		return s.Boundary(i)
	}
	lo, hi := 0, a.Cols() // invariant: cols < lo finite, cols >= hi blocked
	for lo < hi {
		mid := (lo + hi) / 2
		if math.IsInf(a.At(i, mid), 1) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// StairProbe returns a as-is when it already implements Staircase or
// carries no blocked entries; otherwise (a dense staircase matrix) it
// probes every row's blocked boundary and wraps a as a StairFunc, so
// the staircase validators and solvers see the structure they expect.
func StairProbe(a Matrix) Matrix {
	if _, ok := a.(Staircase); ok || a.Rows() <= 0 || a.Cols() <= 0 {
		return a
	}
	m, n := a.Rows(), a.Cols()
	bound := make([]int, m)
	blocked := false
	for i := range bound {
		bound[i] = BoundaryOf(a, i)
		if bound[i] < n {
			blocked = true
		}
	}
	if !blocked {
		return a
	}
	return StairFunc{M: m, N: n, F: a.At, Bound: func(i int) int { return bound[i] }}
}

// Composite is a p x q x r Monge-composite array c[i,j,k] = d[i,j] + e[j,k].
//
// Note on tube orientation: the SPAA '90 extended abstract defines the
// (i,j)-tube as varying the third coordinate, but with c[i,j,k] = d[i,j] +
// e[j,k] that maximum is d[i,j] + max_k e[j,k], which is independent of the
// searching structure and inconsistent with the tie-breaking rule stated in
// the same paragraph. The intended problem -- the one used by the string
// editing application and by [AP89a, AALM88] -- fixes (i,k) and searches
// over the middle coordinate j, i.e. computes the (max,+) product of D and
// E. This repository implements that version: Tube(i, k) is the vector
// {d[i,j] + e[j,k] : 0 <= j < q}.
type Composite struct {
	D, E Matrix // D is p x q, E is q x r
}

// NewComposite validates dimensions and returns the composite view.
func NewComposite(d, e Matrix) Composite {
	if d.Cols() != e.Rows() {
		merr.Throwf(merr.ErrDimensionMismatch, "marray: NewComposite: inner dimensions %d and %d differ",
			d.Cols(), e.Rows())
	}
	return Composite{D: d, E: e}
}

// P returns the first dimension (rows of D).
func (c Composite) P() int { return c.D.Rows() }

// Q returns the middle dimension (cols of D == rows of E).
func (c Composite) Q() int { return c.D.Cols() }

// R returns the third dimension (cols of E).
func (c Composite) R() int { return c.E.Cols() }

// At returns c[i,j,k] = d[i,j] + e[j,k].
func (c Composite) At(i, j, k int) float64 { return c.D.At(i, j) + c.E.At(j, k) }
