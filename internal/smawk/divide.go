package smawk

import "monge/internal/marray"

// RowMinimaDC is the O((m+n) lg m) divide-and-conquer row-minima algorithm
// for totally monotone (min) arrays: solve the middle row by a scan, then
// recurse on the two halves with bracketed column ranges. It predates
// SMAWK and serves as the secondary sequential baseline in the benchmark
// harness.
func RowMinimaDC(a marray.Matrix) []int {
	m, n := a.Rows(), a.Cols()
	out := make([]int, m)
	if m == 0 || n == 0 {
		return out
	}
	var rec func(rLo, rHi, cLo, cHi int)
	rec = func(rLo, rHi, cLo, cHi int) {
		if rLo > rHi {
			return
		}
		mid := (rLo + rHi) / 2
		best, bv := cLo, a.At(mid, cLo)
		for j := cLo + 1; j <= cHi; j++ {
			if v := a.At(mid, j); v < bv {
				best, bv = j, v
			}
		}
		out[mid] = best
		rec(rLo, mid-1, cLo, best)
		rec(mid+1, rHi, best, cHi)
	}
	rec(0, m-1, 0, n-1)
	return out
}
