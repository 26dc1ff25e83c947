// Package smawk implements the sequential array-searching algorithms that
// the paper builds on and compares against: the Theta(m+n) SMAWK algorithm
// of Aggarwal, Klawe, Moran, Shor, and Wilber [AKM+87] for row minima and
// row maxima of totally monotone arrays, a sequential staircase-Monge
// row-minima algorithm in the spirit of Aggarwal and Klawe [AK88], and
// sequential tube maxima for Monge-composite arrays.
//
// These are the sequential baselines for Tables 1.1-1.3 of the paper; the
// parallel algorithms in internal/core and internal/hcmonge are validated
// against them, and they in turn are validated against brute force.
package smawk

import (
	"math"

	"monge/internal/marray"
)

// RowMinima returns, for each row of a, the column index of its leftmost
// minimum. The array must be totally monotone with respect to row minima
// (every Monge array qualifies). Runs in O(m + n) time via SMAWK.
func RowMinima(a marray.Matrix) []int {
	return run(a, less)
}

// RowMaxima returns, for each row of a, the column index of its leftmost
// maximum. The array must be totally monotone with respect to row maxima
// (every inverse-Monge array qualifies). Runs in O(m + n) time via SMAWK.
func RowMaxima(a marray.Matrix) []int {
	return run(a, greater)
}

// RowMinimaInto is RowMinima writing into a caller-provided slice of
// length >= a.Rows(). Recursion scratch comes from a pooled workspace, so
// the call allocates nothing; out is not touched for rows beyond a.Rows().
// The native backend's row-minima kernel is this call on its whole input,
// so a native query allocates only its answer slice.
func RowMinimaInto(a marray.Matrix, out []int) {
	// Narrow dense arrays skip the recursion: the branchless row scan
	// (scan.go) over zero-copy row views beats SMAWK's O(m+n) bound
	// until the row no longer fits a handful of cache lines, and it
	// applies the identical leftmost tie rule.
	if d, ok := a.(*marray.Dense); ok && d.Cols() <= denseScanCols {
		scanRowMinimaInto(d.RowView, 0, d.Rows(), out)
		return
	}
	w := getWS()
	defer putWS(w)
	runInto(w, a, less, out)
}

// MongeRowMaxima returns the leftmost row maxima of a Monge array. A Monge
// array is totally monotone for maxima only after column reversal, so this
// adapter reverses, searches, and maps indices back, preserving the
// leftmost tie-breaking rule of the original array.
func MongeRowMaxima(a marray.Matrix) []int {
	out := make([]int, a.Rows())
	MongeRowMaximaInto(a, out)
	return out
}

// MongeRowMaximaInto is MongeRowMaxima writing into a caller-provided
// slice of length >= a.Rows(), allocation-free like RowMinimaInto.
func MongeRowMaximaInto(a marray.Matrix, out []int) {
	// Narrow dense arrays scan directly: argMax is already the leftmost
	// maximum, so the reverse-and-remap detour below is unnecessary.
	if d, ok := a.(*marray.Dense); ok && d.Cols() <= denseScanCols {
		for i := range out[:d.Rows()] {
			out[i] = argMax(d.RowView(i))
		}
		return
	}
	// In the reversed array, the leftmost maximum corresponds to the
	// rightmost maximum of a. Rightmost-best is leftmost-best under
	// "better or equal": with atLeast as the kill test SMAWK keeps the
	// rightmost optimum, and total monotonicity holds in the same
	// direction.
	out = out[:a.Rows()]
	w := getWS()
	defer putWS(w)
	runInto(w, marray.ReverseCols(a), atLeast, out)
	n := a.Cols()
	for i := range out {
		out[i] = n - 1 - out[i]
	}
}

// less reports x strictly better than y for minima.
func less(x, y float64) bool { return x < y }

// greater reports x strictly better than y for maxima.
func greater(x, y float64) bool { return x > y }

// atLeast reports x better than or equal to y for maxima: !greater(y, x).
func atLeast(x, y float64) bool { return !(y > x) }

// run executes SMAWK returning leftmost best entries per row.
func run(a marray.Matrix, better func(x, y float64) bool) []int {
	out := make([]int, a.Rows())
	w := getWS()
	defer putWS(w)
	runInto(w, a, better, out)
	return out
}

// runInto executes SMAWK into a caller-provided answer slice, drawing all
// recursion scratch from w. The staircase solver routes its Monge feasible
// regions through here so one workspace serves the whole decomposition.
func runInto(w *workspace, a marray.Matrix, better func(x, y float64) bool, out []int) {
	m, n := a.Rows(), a.Cols()
	if m == 0 || n == 0 {
		return
	}
	mark := w.mark()
	defer w.rewind(mark)
	rows := w.ints.Alloc(m)
	cols := w.ints.Alloc(n)
	for i := range rows {
		rows[i] = i
	}
	for j := range cols {
		cols[j] = j
	}
	solve(w, a, better, rows, cols, out)
}

// solve is the classic SMAWK recursion: REDUCE discards columns that cannot
// contain any row's leftmost optimum, the recursion solves odd-indexed
// rows, and INTERPOLATE fills even-indexed rows with a linear scan between
// the neighbouring odd answers.
func solve(w *workspace, a marray.Matrix, better func(x, y float64) bool, rows, cols []int, out []int) {
	if len(rows) == 0 {
		return
	}
	mark := w.mark()
	defer w.rewind(mark)
	// REDUCE: maintain a stack of surviving columns; column c kills the top
	// of the stack if c is strictly better at the row indexed by the
	// current stack height. Strictness keeps the leftmost optimum.
	stack := w.ints.Alloc(len(rows))[:0]
	for _, c := range cols {
		for len(stack) > 0 && better(a.At(rows[len(stack)-1], c), a.At(rows[len(stack)-1], stack[len(stack)-1])) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) < len(rows) {
			stack = append(stack, c)
		}
	}
	cols = stack

	// Recurse on odd-indexed rows.
	odd := w.ints.Alloc(len(rows) / 2)[:0]
	for i := 1; i < len(rows); i += 2 {
		odd = append(odd, rows[i])
	}
	solve(w, a, better, odd, cols, out)

	// INTERPOLATE: row 2i's optimum lies between the optima of rows 2i-1
	// and 2i+1 (inclusive), by monotonicity of the leftmost optimum.
	ci := 0
	for ri := 0; ri < len(rows); ri += 2 {
		r := rows[ri]
		hi := cols[len(cols)-1]
		if ri+1 < len(rows) {
			hi = out[rows[ri+1]]
		}
		best := cols[ci]
		bv := a.At(r, best)
		j := ci
		for cols[j] != hi {
			j++
			if v := a.At(r, cols[j]); better(v, bv) {
				best, bv = cols[j], v
			}
		}
		out[r] = best
		ci = j
	}
}

// RowMinimaBrute returns leftmost row minima by exhaustive scan, for
// validation. O(m*n).
func RowMinimaBrute(a marray.Matrix) []int {
	return brute(a, less)
}

// RowMaximaBrute returns leftmost row maxima by exhaustive scan, for
// validation. O(m*n).
func RowMaximaBrute(a marray.Matrix) []int {
	return brute(a, greater)
}

func brute(a marray.Matrix, better func(x, y float64) bool) []int {
	m, n := a.Rows(), a.Cols()
	out := make([]int, m)
	for i := 0; i < m; i++ {
		best, bv := 0, a.At(i, 0)
		for j := 1; j < n; j++ {
			if v := a.At(i, j); better(v, bv) {
				best, bv = j, v
			}
		}
		out[i] = best
	}
	return out
}

// Values returns a[i, idx[i]] for each row i, pairing an argmin/argmax
// vector with its entry values.
func Values(a marray.Matrix, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = a.At(i, j)
	}
	return out
}

// SameOptima reports whether two answer vectors select entries of equal
// value in every row of a (they may differ in tie columns only if the
// caller allows it; this helper compares values, not indices).
func SameOptima(a marray.Matrix, x, y []int) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		vx, vy := a.At(i, x[i]), a.At(i, y[i])
		if vx != vy && !(math.IsNaN(vx) && math.IsNaN(vy)) {
			return false
		}
	}
	return true
}
