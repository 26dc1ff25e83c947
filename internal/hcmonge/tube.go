package hcmonge

import (
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/merr"
)

// Theorem 3.4: tube maxima of a p x q x r Monge-composite array on an
// O(n^2)-processor hypercube in O(lg n) time. The p slices
// W_i[k][j] = d[i,j] + e[j,k] are independent r x q Monge arrays; each
// runs the two-dimensional recursion on its own sub-machine, all slices
// simultaneously. A charged local preamble of d steps per slice stands in
// for the butterfly distribution of d[i,*] and the E columns into the
// slice's subcube (the paper distributes D and E uniformly across local
// memories; the entry function then evaluates in O(1) as the model
// requires).

// TubeMachineFor returns a machine of the given kind sized for the tube
// search on composite c: one MachineFor-sized subcube per slice of the
// first dimension.
func TubeMachineFor(kind hc.Kind, c marray.Composite) *hc.Machine {
	subDim, lgP := tubeDims(c)
	return hc.New(kind, subDim+lgP)
}

func tubeDims(c marray.Composite) (subDim, lgP int) {
	subDim = dimFor(c.R(), c.Q())
	for 1<<lgP < c.P() {
		lgP++
	}
	return subDim, lgP
}

// TubeMaximaOn computes, for every (i, k), the smallest middle
// coordinate j maximising c[i,j,k] = d[i,j] + e[j,k] (D, E Monge), plus
// the values, on mach. The machine must be at least TubeMachineFor-sized
// (merr.ErrMachineTooSmall is thrown otherwise); the caller may attach a
// context or fault injector first.
func TubeMaximaOn(mach *hc.Machine, c marray.Composite) ([][]int, [][]float64) {
	p, q, r := c.P(), c.Q(), c.R()
	subDim, lgP := tubeDims(c)
	if mach.Dim() < subDim+lgP {
		merr.Throwf(merr.ErrMachineTooSmall,
			"hcmonge: tube search needs a %d-dimensional machine, have %d dimensions",
			subDim+lgP, mach.Dim())
	}
	defer countSearch(mach, "tube")()
	argJ := make([][]int, p)
	vals := make([][]float64, p)
	dims := make([]int, p)
	for i := range dims {
		dims[i] = subDim
	}
	mach.ParallelDo(dims, func(i int, sub *hc.Machine) {
		// Charged stand-in for distributing d[i,*] and the E columns into
		// this slice's subcube.
		sub.Local(sub.Dim(), func(int) {})
		vv := hc.NewVec(sub, func(pp int) int { return pp })
		wv := hc.NewVec(sub, func(pp int) wcell[int] {
			if pp < q {
				return wcell[int]{w: q - 1 - pp, col: q - 1 - pp}
			}
			return wcell[int]{col: -1}
		})
		pr := &problem[int, int]{
			f: func(k, j int) float64 {
				return -(c.D.At(i, j) + c.E.At(j, k))
			},
			tieRight: true, // rightmost in reversed order = leftmost j
		}
		res := pr.solve(sub, r, q, vv, wv)
		snap := res.Snapshot()
		argJ[i] = make([]int, r)
		vals[i] = make([]float64, r)
		for k := 0; k < r; k++ {
			argJ[i][k] = snap[k].col
			vals[i][k] = c.At(i, snap[k].col, k)
		}
	})
	return argJ, vals
}
