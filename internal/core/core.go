// Package core implements the paper's parallel array-searching algorithms
// on the simulated PRAM of internal/pram:
//
//   - row minima / maxima of two-dimensional Monge and inverse-Monge arrays
//     (Lemma 2.1 and the [AP89a] algorithms behind Table 1.1),
//   - row minima of staircase-Monge arrays (Theorem 2.3, Table 1.2),
//   - tube maxima of Monge-composite arrays (Table 1.3; the CRCW
//     variant follows Atallah's doubly-logarithmic scheme [Ata89], the CREW
//     variant the [AP89a, AALM88] logarithmic one).
//
// All algorithms run on either machine mode; on a CRCW machine the inner
// minimum computations use the doubly-logarithmic Shiloach-Vishkin style
// block tournament, on a CREW machine binary-tree reductions. Time,
// processor, and work accounting is performed by the machine; the
// benchmark harness reads those counters to regenerate the paper's tables.
package core

import (
	"monge/internal/marray"
	"monge/internal/pram"
)

// RowMinima computes, for each row of the Monge array a, the column index
// of its leftmost minimum, on the given machine. On a CRCW machine with n
// processors the measured parallel time is O(lg n) for an n x n array
// (Lemma 2.1 / [AP89a]); on a CREW machine the same program runs within
// the O(lg n lg lg n) bound of Table 1.1 when the machine declares
// n / lg lg n processors (Brent scheduling is automatic).
func RowMinima(mach *pram.Machine, a marray.Matrix) []int {
	return searchRows(mach, a, false)
}

// RowMaxima computes leftmost row maxima of the inverse-Monge array a
// (negating reduces it to RowMinima on a Monge array, preserving leftmost
// tie-breaking).
func RowMaxima(mach *pram.Machine, a marray.Matrix) []int {
	return searchRows(mach, marray.Negate(a), false)
}

// MongeRowMaxima computes leftmost row maxima of a MONGE array (the
// Table 1.1 problem statement). For a Monge array the leftmost maximum
// column is nonincreasing in the row index, so the search runs with the
// reversed interval orientation.
func MongeRowMaxima(mach *pram.Machine, a marray.Matrix) []int {
	// Work on the reversed-column array, which is inverse-Monge; its
	// RIGHTMOST maxima correspond to a's leftmost maxima.
	rev := marray.ReverseCols(a)
	idx := searchRows(mach, marray.Negate(rev), true)
	n := a.Cols()
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = n - 1 - j
	}
	return out
}

// searchRows runs the sampled recursion over all rows of a (a Monge, minima
// sought). tieRight selects rightmost instead of leftmost tie-breaking.
func searchRows(mach *pram.Machine, a marray.Matrix, tieRight bool) []int {
	m, n := a.Rows(), a.Cols()
	out := make([]int, m)
	if m == 0 || n == 0 {
		return out
	}
	ws := getWS()
	defer putWS(ws)
	s := &searcher{a: a, tieRight: tieRight, ws: ws}
	rows := ws.ints.Alloc(m)
	for i := range rows {
		rows[i] = i
	}
	mach.Step(m, func(int) {}) // index-vector setup
	res := s.solve(mach, rows, 0, n-1)
	copy(out, res)
	return out
}

// searcher carries the array, tie rule, and scratch workspace through the
// recursion. Recursion-local slices live in ws (stack discipline, see
// ws.go); only the slice returned to the public caller is heap-allocated.
type searcher struct {
	a        marray.Matrix
	tieRight bool
	ws       *coreWS
}

// pick returns the better of two candidates under (smaller value, then tie
// rule) order.
func (s *searcher) pick(x, y pram.ValIdx) pram.ValIdx {
	if y.V < x.V {
		return y
	}
	if x.V < y.V {
		return x
	}
	if s.tieRight {
		if y.I > x.I {
			return y
		}
		return x
	}
	return pram.MinVI(x, y)
}

// solve returns, for each of the given global rows (increasing), the column
// of its best entry within the inclusive column interval [cLo, cHi]. It is
// the recursion of Lemma 2.1: sample every sqrt(k)-th row, solve the
// sampled subarray recursively, and then search each gap's rows inside the
// column interval bracketed by the neighbouring sampled answers (the
// leftmost-minimum column of a Monge array is nondecreasing in the row
// index, and the bracketing intervals telescope to O(n) total width). The
// gaps are processed by parallel processor groups via ParallelDo.
func (s *searcher) solve(mach *pram.Machine, rows []int, cLo, cHi int) []int {
	k := len(rows)
	w := cHi - cLo + 1
	if k == 0 || w <= 0 {
		return nil
	}
	if k <= 2 || w <= 4 {
		return s.base(mach, rows, cLo, cHi)
	}
	step := isqrt(k)
	if step < 2 {
		step = 2
	}
	// The frame's result is allocated before the mark so it survives the
	// rewind; everything after the mark (sampled vectors, gap descriptors,
	// child results) is reclaimed when this frame returns.
	out := s.ws.ints.Alloc(k)
	mark := s.ws.mark()
	defer s.ws.rewind(mark)

	nS := 0
	for p := step - 1; p < k; p += step {
		nS++
	}
	sampledPos := s.ws.ints.Alloc(nS)
	sampledRows := s.ws.ints.Alloc(nS)
	for i, p := 0, step-1; p < k; i, p = i+1, p+step {
		sampledPos[i] = p
		sampledRows[i] = rows[p]
	}
	mach.Step(nS, func(int) {}) // sampled-index construction
	sampledCols := s.solve(mach, sampledRows, cLo, cHi)

	for i, p := range sampledPos {
		out[p] = sampledCols[i]
	}

	// Build the gap descriptors. Gap g spans the unsampled rows between
	// sampled row g-1 and sampled row g; its column interval is bracketed
	// by the neighbouring sampled answers (argmin is monotone).
	nG := 0
	prevPos := -1
	for g := 0; g <= nS; g++ {
		endPos := k
		if g < nS {
			endPos = sampledPos[g]
		}
		if prevPos+1 < endPos {
			nG++
		}
		if g < nS {
			prevPos = sampledPos[g]
		}
	}
	gaps := s.ws.gaps.Alloc(nG)
	procs := s.ws.ints.Alloc(nG)
	gi := 0
	prevPos, prevCol := -1, cLo
	for g := 0; g <= nS; g++ {
		endPos := k
		jHi := cHi
		if g < nS {
			endPos = sampledPos[g]
			jHi = sampledCols[g]
		}
		if prevPos+1 < endPos {
			gp := gapDesc{lo: prevPos + 1, hi: endPos, jLo: prevCol, jHi: jHi}
			gaps[gi] = gp
			procs[gi] = (gp.hi - gp.lo) + (gp.jHi - gp.jLo + 1)
			gi++
		}
		if g < nS {
			prevPos = sampledPos[g]
			prevCol = sampledCols[g]
		}
	}

	results := s.ws.slices.Alloc(nG)
	mach.ParallelDo(procs, func(b int, sub *pram.Machine) {
		gp := gaps[b]
		gapRows := rows[gp.lo:gp.hi]
		results[b] = s.solve(sub, gapRows, gp.jLo, gp.jHi)
	})
	for b, gp := range gaps {
		copy(out[gp.lo:gp.hi], results[b])
	}
	return out
}

// base solves a small subproblem directly: on a CRCW machine with the
// doubly-logarithmic block tournament, otherwise with a binary-tree
// reduction. All rows proceed in lockstep supersteps.
func (s *searcher) base(mach *pram.Machine, rows []int, cLo, cHi int) []int {
	if mach.Mode() == pram.CRCW {
		return s.baseCRCW(mach, rows, cLo, cHi)
	}
	return s.baseTree(mach, rows, cLo, cHi)
}

// baseTree: ceil(lg w) halving supersteps over k*w virtual processors.
func (s *searcher) baseTree(mach *pram.Machine, rows []int, cLo, cHi int) []int {
	k := len(rows)
	w := cHi - cLo + 1
	arr := pram.NewArray[pram.ValIdx](mach, k*w)
	mach.Step(k*w, func(id int) {
		r, c := id/w, id%w
		arr.Write(id, id, pram.ValIdx{V: s.a.At(rows[r], cLo+c), I: cLo + c})
	})
	for width := w; width > 1; width = (width + 1) / 2 {
		half := (width + 1) / 2
		mach.Step(k*(width/2), func(id int) {
			r, c := id/(width/2), id%(width/2)
			x := arr.Read(r*w + c)
			y := arr.Read(r*w + c + half)
			arr.Write(id, r*w+c, s.pick(x, y))
		})
	}
	out := s.ws.ints.Alloc(k)
	for r := 0; r < k; r++ {
		out[r] = arr.Read(r * w).I
	}
	arr.Free()
	return out
}

// baseCRCW: the Shiloach-Vishkin style tournament. Candidates per row
// shrink as c -> c^2/w per round (after an initial pairing round), so the
// round count is O(lg lg w); each round uses at most 2*k*w virtual
// processors for the all-pairs comparisons inside blocks.
func (s *searcher) baseCRCW(mach *pram.Machine, rows []int, cLo, cHi int) []int {
	k := len(rows)
	w := cHi - cLo + 1
	arr := pram.NewArray[pram.ValIdx](mach, k*w)
	mach.Step(k*w, func(id int) {
		r, c := id/w, id%w
		arr.Write(id, id, pram.ValIdx{V: s.a.At(rows[r], cLo+c), I: cLo + c})
	})
	stride := 1
	count := w // surviving candidates per row, at positions 0, stride, ...
	for count > 1 {
		g := w / count // group size this round
		if g < 2 {
			g = 2
		}
		if g > count {
			g = count
		}
		blocks := (count + g - 1) / g
		loser := pram.NewArray[bool](mach, k*count)
		// All-pairs elimination inside each block of g candidates.
		mach.Step(k*count*g, func(id int) {
			r := id / (count * g)
			rest := id % (count * g)
			x := rest / g         // candidate index within the row
			y := (x/g)*g + rest%g // same-block rival candidate index
			if y >= count || x == y {
				return
			}
			cx := arr.Read(r*w + x*stride)
			cy := arr.Read(r*w + y*stride)
			if s.pick(cx, cy) == cy {
				loser.Write(id, r*count+x, true)
			}
		})
		// Winners move to their block-start slot: the survivor of block
		// x/g becomes the next round's candidate at raw position
		// (x/g) * (stride*g) = blockStart * stride.
		mach.Step(k*count, func(id int) {
			r, x := id/count, id%count
			if !loser.Read(r*count + x) {
				blockStart := (x / g) * g
				arr.Write(id, r*w+blockStart*stride, arr.Read(r*w+x*stride))
			}
		})
		// Recompute positions: survivors sit at block starts, i.e. at
		// positions that are multiples of stride*g.
		stride *= g
		count = blocks
		loser.Free()
	}
	out := s.ws.ints.Alloc(k)
	for r := 0; r < k; r++ {
		out[r] = arr.Read(r * w).I
	}
	arr.Free()
	return out
}

func isqrt(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
