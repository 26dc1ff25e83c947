package smawk

import (
	"math"

	"monge/internal/marray"
)

// StaircaseRowMinima returns, for each row of the staircase-Monge array a,
// the column index of its leftmost finite minimum, or -1 if the row is
// entirely blocked (+Inf). This is the sequential baseline for Theorem 2.3,
// implementing the Aggarwal-Klawe [AK88] style decomposition the paper's
// Lemma 2.2 builds on: sample rows, solve them recursively, and observe
// that the remaining rows' minima lie either in fully finite Monge
// "feasible regions" between consecutive sampled minima (searched with
// SMAWK) or in staircase "tail" regions beyond the next sampled row's
// boundary (solved recursively), exactly the two feasible-region classes of
// Figure 2.2.
func StaircaseRowMinima(a marray.Matrix) []int {
	out := make([]int, a.Rows())
	StaircaseRowMinimaInto(a, out)
	return out
}

// StaircaseRowMinimaInto is StaircaseRowMinima writing into a
// caller-provided slice of length >= a.Rows(), drawing all scratch from a
// pooled workspace so the call itself allocates nothing. The native
// backend's staircase kernel is this call on its whole input.
func StaircaseRowMinimaInto(a marray.Matrix, out []int) {
	m, n := a.Rows(), a.Cols()
	if m == 0 {
		return
	}
	// Narrow dense arrays take the branchless finite-minimum scan: +Inf
	// (blocked) entries lose by key order rather than by boundary
	// bookkeeping, so no BoundaryOf pass is needed either.
	if d, ok := a.(*marray.Dense); ok && n <= denseScanCols {
		scanStairRowMinimaInto(d.RowView, 0, m, out)
		return
	}
	w := getWS()
	defer putWS(w)
	f := w.ints.Alloc(m)
	for i := 0; i < m; i++ {
		f[i] = marray.BoundaryOf(a, i)
	}
	s := &stairSolver{a: a, f: f, n: n, w: w}
	rows := w.ints.Alloc(m)
	for i := range rows {
		rows[i] = i
	}
	res := s.solve(rows, 0, n)
	for i := range rows {
		out[i] = res[i].col
	}
}

// StaircaseRowMinimaBrute scans every finite entry. O(m*n), for validation.
func StaircaseRowMinimaBrute(a marray.Matrix) []int {
	m, n := a.Rows(), a.Cols()
	out := make([]int, m)
	for i := 0; i < m; i++ {
		best, bv := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			v := a.At(i, j)
			if math.IsInf(v, 1) {
				break // staircase: rest of the row is blocked
			}
			if v < bv {
				best, bv = j, v
			}
		}
		out[i] = best
	}
	return out
}

// cand is a window-local answer: the leftmost minimising column of a row
// within the current column window, and its value. col == -1 means the row
// has no finite entry in the window.
type cand struct {
	col int
	val float64
}

func worst() cand { return cand{col: -1, val: math.Inf(1)} }

// betterCand reports whether x improves on y under (value, then leftmost
// column) order.
func (x cand) better(y cand) bool {
	if x.col == -1 {
		return false
	}
	if y.col == -1 {
		return true
	}
	if x.val != y.val {
		return x.val < y.val
	}
	return x.col < y.col
}

type stairSolver struct {
	a marray.Matrix
	f []int // first blocked column per global row
	n int
	w *workspace
}

// eff returns the exclusive end of row r's finite range inside a window
// ending at c1.
func (s *stairSolver) eff(r, c1 int) int {
	if s.f[r] < c1 {
		return s.f[r]
	}
	return c1
}

// solve returns window-local minima for the given (increasing) global rows
// over columns [c0, c1). The sub-array induced by any increasing row subset
// and column window of a staircase-Monge array is staircase-Monge.
func (s *stairSolver) solve(rows []int, c0, c1 int) []cand {
	// res is the frame's result: allocated before the mark so it survives
	// into the caller, whose own rewind reclaims it after the merge.
	res := s.w.cands.Alloc(len(rows))
	for i := range res {
		res[i] = worst()
	}
	if len(rows) == 0 || c0 >= c1 {
		return res
	}
	// Base case: few rows, or a narrow window -- scan directly.
	if len(rows) <= 2 || c1-c0 <= 4 {
		for i, r := range rows {
			res[i] = s.scanRow(r, c0, c1)
		}
		return res
	}
	mark := s.w.mark()
	defer s.w.rewind(mark)

	step := intSqrt(len(rows)) // sample every step-th row
	if step < 2 {
		step = 2
	}
	nS := 0
	for p := step - 1; p < len(rows); p += step {
		nS++
	}
	sampledPos := s.w.ints.Alloc(nS)
	sampledRows := s.w.ints.Alloc(nS)
	for i, p := 0, step-1; p < len(rows); i, p = i+1, p+step {
		sampledPos[i] = p
		sampledRows[i] = rows[p]
	}
	sres := s.solve(sampledRows, c0, c1)
	for i, p := range sampledPos {
		res[p] = sres[i]
	}

	// Process each gap of unsampled rows between consecutive sampled rows
	// (plus the prefix gap before the first and the suffix gap after the
	// last sampled row).
	gapStart := 0
	for g := 0; g <= len(sampledPos); g++ {
		gapEnd := len(rows) // exclusive
		if g < len(sampledPos) {
			gapEnd = sampledPos[g]
		}
		if gapStart < gapEnd {
			s.solveGap(rows, res, gapStart, gapEnd, g, sampledPos, sres, c0, c1)
		}
		if g < len(sampledPos) {
			gapStart = sampledPos[g] + 1
		}
	}
	return res
}

// solveGap fills res[gapStart:gapEnd] (positions within rows) given the
// window-local minima of the sampled rows bracketing the gap. g is the
// index of the sampled row below the gap (g == len(sampledPos) means none).
func (s *stairSolver) solveGap(rows []int, res []cand, gapStart, gapEnd, g int, sampledPos []int, sres []cand, c0, c1 int) {
	mark := s.w.mark()
	defer s.w.rewind(mark)
	// Lower bound from the sampled row above the gap (claim: for a row x
	// with f_x > cp, the leftmost window minimum is >= cp, by a Monge
	// exchange with the row above).
	lb := c0
	haveAbove := g > 0
	if haveAbove && sres[g-1].col >= 0 {
		lb = sres[g-1].col
	}
	// Upper bound from the sampled row below (claim: columns in (cq, effq)
	// are dominated by cq for every gap row; columns >= effq form the
	// staircase tail region).
	haveBelow := g < len(sampledPos) && sres[g].col >= 0
	var cq, effq int
	if haveBelow {
		cq = sres[g].col
		effq = s.eff(rows[sampledPos[g]], c1)
	}

	// Split gap rows into "clean" rows whose own boundary stays right of lb
	// (the Monge lower bound applies) and "crossed" rows whose boundary has
	// cut at or left of lb (their whole finite range reopens; these are the
	// staircase feasible regions of Figure 2.2 and recurse).
	nClean, nCrossed := 0, 0
	for p := gapStart; p < gapEnd; p++ {
		if e := s.eff(rows[p], c1); e <= c0 {
			continue // fully blocked in the window; stays -1
		} else if e > lb {
			nClean++
		} else {
			nCrossed++
		}
	}
	cleanPos := s.w.ints.Alloc(nClean)[:0]
	crossedPos := s.w.ints.Alloc(nCrossed)[:0]
	for p := gapStart; p < gapEnd; p++ {
		if e := s.eff(rows[p], c1); e <= c0 {
			continue
		} else if e > lb {
			cleanPos = append(cleanPos, p)
		} else {
			crossedPos = append(crossedPos, p)
		}
	}

	if haveBelow {
		// Monge feasible region: clean rows x columns [lb, cq], fully
		// finite because cq < effq <= eff(x) for clean rows... eff(x) >= effq
		// holds since x is above the sampled row q and boundaries are
		// nonincreasing.
		if len(cleanPos) > 0 && lb <= cq {
			s.mongeRegion(rows, res, cleanPos, lb, cq)
		}
		// Staircase tail region: columns [effq, c1), rows whose boundary
		// extends past effq.
		if effq < c1 {
			all := s.w.ints.Alloc(len(cleanPos) + len(crossedPos))
			copy(all, cleanPos)
			copy(all[len(cleanPos):], crossedPos)
			s.recurseInto(rows, res, all, effq, c1)
		}
		// Crossed rows also reopen columns [c0, cq+1) up to their own
		// boundary.
		if len(crossedPos) > 0 {
			hi := cq + 1
			if hi > c1 {
				hi = c1
			}
			s.recurseInto(rows, res, crossedPos, c0, hi)
		}
	} else {
		// No usable sampled row below: recurse on the full remaining
		// windows (the suffix gap has fewer than step rows, so this
		// terminates).
		if len(cleanPos) > 0 {
			s.recurseInto(rows, res, cleanPos, lb, c1)
		}
		if len(crossedPos) > 0 {
			s.recurseInto(rows, res, crossedPos, c0, c1)
		}
	}
}

// mongeRegion runs SMAWK on the fully finite rectangle (rows at positions
// pos) x (columns [jLo, jHi]) and merges the answers into res.
func (s *stairSolver) mongeRegion(rows []int, res []cand, pos []int, jLo, jHi int) {
	sub := marray.Func{
		M: len(pos),
		N: jHi - jLo + 1,
		F: func(i, j int) float64 { return s.a.At(rows[pos[i]], jLo+j) },
	}
	idx := s.w.ints.Alloc(len(pos))
	runInto(s.w, sub, less, idx)
	for i, p := range pos {
		col := jLo + idx[i]
		c := cand{col: col, val: s.a.At(rows[p], col)}
		if c.better(res[p]) {
			res[p] = c
		}
	}
}

// recurseInto solves a sub-window for the rows at the given positions and
// merges the answers into res.
func (s *stairSolver) recurseInto(rows []int, res []cand, pos []int, c0, c1 int) {
	if len(pos) == 0 || c0 >= c1 {
		return
	}
	subRows := s.w.ints.Alloc(len(pos))
	for i, p := range pos {
		subRows[i] = rows[p]
	}
	sub := s.solve(subRows, c0, c1)
	for i, p := range pos {
		if sub[i].better(res[p]) {
			res[p] = sub[i]
		}
	}
}

// scanRow scans row r over [c0, min(f_r, c1)) and returns its leftmost
// minimum.
func (s *stairSolver) scanRow(r, c0, c1 int) cand {
	hi := s.eff(r, c1)
	best := worst()
	for j := c0; j < hi; j++ {
		v := s.a.At(r, j)
		if v < best.val || best.col == -1 {
			best = cand{col: j, val: v}
		}
	}
	return best
}

func intSqrt(x int) int {
	r := int(math.Sqrt(float64(x)))
	for r*r > x {
		r--
	}
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
