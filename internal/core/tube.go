package core

import (
	"monge/internal/marray"
	"monge/internal/pram"
)

// TubeMaxima solves the tube-maxima problem for the p x q x r
// Monge-composite array c[i,j,k] = d[i,j] + e[j,k] (D, E Monge) on the
// given machine: for every (i, k) it returns the smallest middle
// coordinate j among those maximising c[i,j,k], plus the maxima values.
//
// The i-slices W_i[k][j] = d[i,j] + e[j,k] are independent r x q Monge
// arrays, so the p slices are searched simultaneously by parallel
// processor groups of q + r processors each (p*(q+r) total, which is
// Theta(n^2) for a cubical array), each group running the two-dimensional
// Monge row-maxima recursion. Measured time is O(lg n) on both machine
// modes, matching the Theta(lg n) CREW row of Table 1.3.
//
// The CRCW row of Table 1.3 cites Atallah's Theta(lg lg n) algorithm
// [Ata89], an unpublished technical report whose details this repository
// does not reconstruct; on a CRCW machine this implementation still
// benefits from the doubly-logarithmic tournament in its leaf reductions
// but its overall step count remains O(lg n). EXPERIMENTS.md records this
// as a documented deviation; the doubly-logarithmic CRCW minimum itself is
// implemented and benchmarked as pram.CRCWMinIndex.
func TubeMaxima(mach *pram.Machine, c marray.Composite) (argJ [][]int, vals [][]float64) {
	p, q, r := c.P(), c.Q(), c.R()
	vals = make([][]float64, p)
	procs := make([]int, p)
	for i := range procs {
		procs[i] = q + r
	}
	argJ = make([][]int, p)
	mach.ParallelDo(procs, func(i int, sub *pram.Machine) {
		wi := marray.Func{M: r, N: q, F: func(k, j int) float64 {
			return c.D.At(i, j) + c.E.At(j, k)
		}}
		argJ[i] = MongeRowMaxima(sub, wi)
	})
	for i := 0; i < p; i++ {
		vals[i] = make([]float64, r)
		for k := 0; k < r; k++ {
			vals[i][k] = c.At(i, argJ[i][k], k)
		}
	}
	return argJ, vals
}
