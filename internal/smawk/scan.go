package smawk

// The branchless dense scan core behind the narrow dense fast paths of
// RowMinimaInto, MongeRowMaximaInto and StaircaseRowMinimaInto. The
// native backend calls those solvers on its whole input, so one
// optimized loop serves every sequential row search on a narrow dense
// array.
//
// # Why bit-tricked selects
//
// A scalar argmin loop ("if v < best { best, arg = v, j }") carries a
// data-dependent branch per element (floating compares do not lower to
// conditional moves) and a loop-carried dependency on best. The
// kernels instead map each float64 to a uint64 whose unsigned order is
// a total order consistent with < on the values the Monge contracts
// allow (see minKey) — the key maps turn their boolean special-value
// tests into all-ones/all-zeros masks via boolMask (SETcc + negate) —
// and fold candidates with integer selects: a single unsigned compare
// whose two conditional assignments the compiler's branch elimination
// lowers to CMOVcc/CSEL, so tie density and data order cost no
// mispredictions. (The only conditional jumps left in the fold loops
// are loop control and slice bounds checks, both index-dependent and
// perfectly predicted.) Four independent lanes (indices j, j+1, j+2,
// j+3) break the dependency chain; the lanes merge at the end under
// (key, then smaller index) order, which is exactly the leftmost rule
// because a total order makes leftmost-min decomposable across any
// index partition. The three scan loops are spelled out per key map
// rather than parameterized: a key callback would put an uninlinable
// indirect call on every element, which is the entire cost the kernels
// exist to remove.
//
// # Special values, by construction
//
//   - ties (exact or 1e-9-near): keys are injective on distinct values,
//     so near-ties never merge; exact ties resolve leftmost via the
//     strict key compare in-lane and the index tie-break across lanes.
//   - -0.0: canonicalized by adding +0.0 before keying (-0.0 + 0.0 is
//     +0.0 in IEEE round-to-nearest; every other value is unchanged),
//     so -0.0 and +0.0 compare equal and the leftmost one wins, exactly
//     as a < scan treats them.
//   - ±Inf: ordinary ordered values under the key map; argMinFinite
//     additionally reports a +Inf (the staircase blocked marker) winner
//     as -1, so a fully blocked range has no minimum.
//   - NaN: keyed above +Inf for minima (below everything for maxima),
//     so a NaN can never displace a real optimum and an all-NaN input
//     returns index 0 — one fixed rule, not the position-dependent
//     poisoning of a naive < scan. Monge inputs never contain NaN; the
//     rule exists so a corrupt entry degrades deterministically.

import (
	"math"
	"math/bits"
)

// denseScanCols bounds the width at which a straight branchless row
// scan beats the SMAWK recursion on dense input: below it the
// O(rows*n) scan is all sequential loads the hardware prefetches (and
// four independent compare lanes), while SMAWK's O(rows+n) bound hides
// recursion and index-indirection constants. 32 columns of float64 is
// four cache lines per row.
const denseScanCols = 32

const (
	signBit = uint64(1) << 63
	absMask = ^signBit // abs-value bits; > infBits means NaN
	infBits = uint64(0x7ff0000000000000)
)

// boolMask converts a comparison result into an all-ones (true) or
// all-zeros (false) select mask without a data-dependent branch: the
// compiler lowers the assignment to a flag materialization (SETcc /
// CSET) and the negation spreads it.
func boolMask(c bool) uint64 {
	var b uint64
	if c {
		b = 1
	}
	return -b
}

// minKey maps v to a uint64 whose unsigned order is the kernels' total
// order for minima: -Inf < finite < +Inf < NaN, with -0.0 == +0.0. The
// standard sign-flip trick (negative floats flip all bits, positive
// floats flip the sign bit) after canonicalizing -0.0 by adding +0.0,
// with every NaN forced to the top so it never wins a minimum.
func minKey(v float64) uint64 {
	u := math.Float64bits(v + 0)
	k := u ^ (uint64(int64(u)>>63) | signBit)
	return k | boolMask(u&absMask > infBits)
}

// maxKey is the mirror map for maxima: larger values get smaller keys
// (argmax = leftmost smallest maxKey), and NaN is again forced to the
// top so it never wins.
func maxKey(v float64) uint64 {
	u := math.Float64bits(v + 0)
	k := ^(u ^ (uint64(int64(u)>>63) | signBit))
	return k | boolMask(u&absMask > infBits)
}

// argMin returns the leftmost index of the minimum of row under the
// kernel total order: on inputs without NaN this is exactly the
// leftmost strict minimum a sequential < scan (RowMinimaBrute) finds.
// row must be non-empty.
func argMin(row []float64) int {
	n := len(row)
	if n < 8 {
		bk, bj := minKey(row[0]), uint64(0)
		for j := 1; j < n; j++ {
			c := minKey(row[j])
			if c < bk {
				bk, bj = c, uint64(j)
			}
		}
		return int(bj)
	}
	k0, k1, k2, k3 := minKey(row[0]), minKey(row[1]), minKey(row[2]), minKey(row[3])
	var j0, j1, j2, j3 uint64 = 0, 1, 2, 3
	j := 4
	for ; j+3 < n; j += 4 {
		c0, c1, c2, c3 := minKey(row[j]), minKey(row[j+1]), minKey(row[j+2]), minKey(row[j+3])
		if c0 < k0 {
			k0, j0 = c0, uint64(j)
		}
		if c1 < k1 {
			k1, j1 = c1, uint64(j+1)
		}
		if c2 < k2 {
			k2, j2 = c2, uint64(j+2)
		}
		if c3 < k3 {
			k3, j3 = c3, uint64(j+3)
		}
	}
	k0, j0 = mergeLanes(k0, j0, k1, j1, k2, j2, k3, j3)
	for ; j < n; j++ {
		c := minKey(row[j])
		if c < k0 {
			k0, j0 = c, uint64(j)
		}
	}
	return int(j0)
}

// argMax returns the leftmost index of the maximum of row under the
// kernel total order; NaN never wins. row must be non-empty.
func argMax(row []float64) int {
	n := len(row)
	if n < 8 {
		bk, bj := maxKey(row[0]), uint64(0)
		for j := 1; j < n; j++ {
			c := maxKey(row[j])
			if c < bk {
				bk, bj = c, uint64(j)
			}
		}
		return int(bj)
	}
	k0, k1, k2, k3 := maxKey(row[0]), maxKey(row[1]), maxKey(row[2]), maxKey(row[3])
	var j0, j1, j2, j3 uint64 = 0, 1, 2, 3
	j := 4
	for ; j+3 < n; j += 4 {
		c0, c1, c2, c3 := maxKey(row[j]), maxKey(row[j+1]), maxKey(row[j+2]), maxKey(row[j+3])
		if c0 < k0 {
			k0, j0 = c0, uint64(j)
		}
		if c1 < k1 {
			k1, j1 = c1, uint64(j+1)
		}
		if c2 < k2 {
			k2, j2 = c2, uint64(j+2)
		}
		if c3 < k3 {
			k3, j3 = c3, uint64(j+3)
		}
	}
	k0, j0 = mergeLanes(k0, j0, k1, j1, k2, j2, k3, j3)
	for ; j < n; j++ {
		c := maxKey(row[j])
		if c < k0 {
			k0, j0 = c, uint64(j)
		}
	}
	return int(j0)
}

// mergeLanes folds the four lane minima into one under strict key
// order with the smaller index winning key ties — the leftmost rule
// across the lane partition.
func mergeLanes(k0, j0, k1, j1, k2, j2, k3, j3 uint64) (uint64, uint64) {
	if k1 < k0 || (k1 == k0 && j1 < j0) {
		k0, j0 = k1, j1
	}
	if k3 < k2 || (k3 == k2 && j3 < j2) {
		k2, j2 = k3, j3
	}
	if k2 < k0 || (k2 == k0 && j2 < j0) {
		k0, j0 = k2, j2
	}
	return k0, j0
}

// argMinFinite returns the leftmost index of the minimum among entries
// that are not +Inf, or -1 when every entry is blocked — the staircase
// row-minima contract (+Inf is the blocked marker and never wins).
func argMinFinite(row []float64) int {
	j := argMin(row)
	if math.IsInf(row[j], 1) {
		return -1
	}
	return j
}

// scanRowMinimaInto fills out[lo:hi] with the leftmost-minimum column
// of each row of rows(i), the narrow dense path of RowMinimaInto. rows
// must return a full row slice for every i in [lo, hi).
func scanRowMinimaInto(rows func(i int) []float64, lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		out[i] = argMin(rows(i))
	}
}

// scanStairRowMinimaInto is the staircase variant of scanRowMinimaInto:
// blocked (+Inf) entries never win and fully blocked rows yield -1,
// matching StaircaseRowMinima.
func scanStairRowMinimaInto(rows func(i int) []float64, lo, hi int, out []int) {
	for i := lo; i < hi; i++ {
		out[i] = argMinFinite(rows(i))
	}
}

// Rank64 returns the number of set bits of w at positions <= pos — the
// predecessor-rank primitive the mindex packed breakpoint bitmaps use
// (one popcount per query block).
func Rank64(w uint64, pos uint) int {
	return bits.OnesCount64(w & (^uint64(0) >> (63 - pos)))
}
