package smawk

import (
	"monge/internal/marray"
)

// TubeMaxima solves the tube-maxima problem for a p x q x r Monge-composite
// array c[i,j,k] = d[i,j] + e[j,k] (D, E Monge): for every (i, k) it finds
// the middle coordinate j minimising ties (smallest j) among those
// maximising c[i,j,k]. Runs in O(p*(q+r)) time: for each fixed i the slice
// W_i[k][j] = e[j,k] + d[i,j] is a Monge array in (k, j) (it is the
// transpose of E plus a column offset), so its row maxima come from one
// SMAWK pass.
//
// The returned argJ has p rows and r columns; vals[i][k] = c[i, argJ[i][k], k].
func TubeMaxima(c marray.Composite) (argJ [][]int, vals [][]float64) {
	p, q, r := c.P(), c.Q(), c.R()
	argJ = make([][]int, p)
	vals = make([][]float64, p)
	for i := 0; i < p; i++ {
		wi := marray.Func{M: r, N: q, F: func(k, j int) float64 {
			return c.D.At(i, j) + c.E.At(j, k)
		}}
		// W_i is Monge; its leftmost row maxima need the column-reversal
		// adapter.
		idx := MongeRowMaxima(wi)
		argJ[i] = idx
		v := make([]float64, r)
		for k := 0; k < r; k++ {
			v[k] = c.At(i, idx[k], k)
		}
		vals[i] = v
	}
	return argJ, vals
}

// TubeMaximaBrute scans all q middle coordinates for every tube. O(p*q*r),
// for validation.
func TubeMaximaBrute(c marray.Composite) ([][]int, [][]float64) {
	p, q, r := c.P(), c.Q(), c.R()
	argJ := make([][]int, p)
	vals := make([][]float64, p)
	for i := 0; i < p; i++ {
		argJ[i] = make([]int, r)
		vals[i] = make([]float64, r)
		for k := 0; k < r; k++ {
			best, bv := 0, c.At(i, 0, k)
			for j := 1; j < q; j++ {
				if v := c.At(i, j, k); v > bv {
					best, bv = j, v
				}
			}
			argJ[i][k] = best
			vals[i][k] = bv
		}
	}
	return argJ, vals
}
