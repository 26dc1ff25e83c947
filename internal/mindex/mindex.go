// Package mindex implements an online submatrix-maximum index for Monge
// and staircase-Monge arrays, after Gawrychowski, Mozes, and Weimann
// ("Submatrix maximum queries in Monge matrices", arXiv 1307.2313;
// equivalence to predecessor search, arXiv 1502.07663): preprocess the
// array once, then answer arbitrary submatrix max and row-range minima
// queries cheaply, converting the repository's one-shot batch kernels
// into the read-heavy build-once/query-millions serving shape.
//
// # Structure
//
// The index is a canonical hierarchy (segment tree) over row blocks. For
// each node — a contiguous block of rows — it stores the block's upper
// envelope: for every column j, the smallest row of the block attaining
// the column maximum. By the Monge inequality any two rows cross at most
// once (a[i,j] - a[k,j] is nondecreasing in j for i < k), so the
// envelope's owner row is nonincreasing in j and is stored as O(rows)
// breakpoint intervals. Envelopes are built bottom-up: two children
// envelopes cross at most once, and the crossing column is found by
// binary search, so the whole hierarchy costs O(m log m log n) envelope
// work on top of one linear pass over the input. Each node also stores
// per-interval maxima with a sparse table over them, so the maximum of
// any run of whole intervals is found in O(1).
//
// A query [r1,r2] x [c1,c2] decomposes the row range into O(log m)
// canonical nodes. In each node the column range cuts at most two
// breakpoint intervals; whole intervals are answered by the sparse
// table, and the two cut intervals fall back to a per-row block-maxima
// table (one value per 64 columns, filled by the same linear input
// pass), giving O(log m log n) envelope steps plus O(B + n/B) boundary
// work per cut — polylogarithmic envelope navigation with a small,
// constant-bounded scan tail, never the O(m + n) of an uncached SMAWK
// call.
//
// # Contracts
//
// Answers are index-exact and deterministic: SubmatrixMax returns the
// maximum entry with the lexicographically smallest (row, col) among
// maximizers, matching the brute-force oracle entry for entry. Entries
// must be finite or +Inf; +Inf entries (staircase-blocked positions,
// right/down-closed) never win a maximum — a fully blocked rectangle
// answers {Row: -1, Col: -1, Val: -Inf}. RangeRowMinima returns each
// row's leftmost-minimum column exactly as smawk.RowMinima (or, for
// staircase inputs, smawk.StaircaseRowMinima with -1 for fully blocked
// rows) would.
//
// An Index is immutable after Build and safe for concurrent queries
// from any number of goroutines; implicit (non-Dense) inputs are
// evaluated directly, since the build sweeps each entry about once and
// a query's boundary scans touch a few hundred. The build path
// participates in the repository's deterministic fault discipline: an
// injector (Opts.Faults, defaulting to the process-wide one) can
// declare any build unit transiently faulty, and the builder recomputes
// that unit — results are pure, so recovery is index-exact by
// construction.
package mindex

import (
	"math"
	"math/bits"
	"sort"

	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/smawk"
)

// blockShift is lg of the per-row block-maxima width: 64 columns per
// block keeps the boundary scans of a query at most 128 entries while
// costing one stored value per 64 input entries.
const blockShift = 6

// walkMaxIvals and packedMinIvals split findInterval into three
// regimes by interval count K. Small nodes (K <= walkMaxIvals) walk
// their handful of breakpoints forward — fewer than one cache line of
// bp, and the walk beats any structure. Mid nodes binary-search bp,
// whose few hundred bytes the cut path pulls into cache anyway. Only
// large nodes (K >= packedMinIvals) carry the packed predecessor
// bitmap over their breakpoint columns, where locating an interval is
// one masked popcount — the predecessor-search view of the query
// (arXiv 1502.07663) — touching two cache lines where a binary search
// over a multi-KB bp would take log K cold probes. Only nodes spanning
// >= packedMinIvals rows can reach the packed regime, so the bitmaps
// cost O((m/packedMinIvals) * n/64) words and never crowd the caches
// the boundary cuts need.
const (
	walkMaxIvals   = 7
	packedMinIvals = 64
)

// Pos is one submatrix-maximum answer: the value and its position. A
// fully blocked (+Inf) rectangle has Row = Col = -1 and Val = -Inf.
type Pos struct {
	Row, Col int
	Val      float64
}

// Opts configures Build. The zero value is usable.
type Opts struct {
	// Faults is the build-path fault injector. Nil inherits the
	// process-wide faults.Global injector, exactly as the simulated
	// machines do; a firing injector forces deterministic recomputation
	// of build units without ever changing the result.
	Faults *faults.Injector
}

// node is one canonical row block [lo, hi) of the hierarchy with its
// column-maxima envelope. bp holds K+1 breakpoints (bp[0] = 0, bp[K] =
// n); own[k] owns columns [bp[k], bp[k+1]) and is strictly decreasing
// in k. ivMax/ivArg hold each interval's maximum value and its leftmost
// column (-1 when the interval is entirely blocked), and sp is the
// flattened sparse table over intervals (spL levels, stride K). For
// nodes with >= packedMinIvals intervals, pw is a bitmap over the
// column space with one bit set per interval start and pr the per-word
// prefix ranks, so findInterval is a single masked popcount.
type node struct {
	lo, hi      int32
	left, right int32
	bp          []int32
	own         []int32
	ivMax       []float64
	ivArg       []int32
	sp          []int32
	spL         int32
	pw          []uint64
	pr          []int32
}

// Index answers submatrix maximum and row-range minima queries over one
// Monge or staircase-Monge array. Build it with Build; it is immutable
// afterwards and safe for concurrent use.
type Index struct {
	a    marray.Matrix // the input, evaluated directly
	d    *marray.Dense // non-nil for dense inputs: zero-copy row views
	m, n int

	nblk   int       // blocks per row
	blkVal []float64 // m*nblk per-row block maxima
	blkArg []int32   // m*nblk leftmost argmax columns (-1: block all blocked)

	rowMin []int32 // per-row leftmost full-row minima (-1: row all blocked)

	nodes []node
	bytes int64
}

// ev is the comparison value of entry (i, j): the entry itself, with
// +Inf (staircase-blocked) mapped to -Inf so blocked entries never win
// a maximum. All arithmetic on entries is comparison-only, so staircase
// inputs need no special cases downstream.
func (ix *Index) ev(i, j int) float64 {
	v := ix.a.At(i, j)
	if math.IsInf(v, 1) {
		return math.Inf(-1)
	}
	return v
}

// Build preprocesses a into an Index. The array must be Monge, or
// staircase-Monge with its +Inf region right/down-closed (callers reach
// this through the facade's sampled screens); entries must be finite or
// +Inf. Throws merr.ErrDimensionMismatch for an empty array.
func Build(a marray.Matrix, opt Opts) *Index {
	m, n := a.Rows(), a.Cols()
	if m <= 0 || n <= 0 {
		merr.Throwf(merr.ErrDimensionMismatch, "mindex: Build: %dx%d array", m, n)
	}
	inj := opt.Faults
	if inj == nil {
		inj = faults.Global()
	}
	ix := &Index{a: a, m: m, n: n}
	if d, dense := a.(*marray.Dense); dense {
		ix.d = d
	}

	// One linear pass over the input: per-row block maxima. Everything
	// later (leaf envelopes, merge straddlers, query boundary cuts)
	// resolves row-range maxima through this table instead of rescanning
	// the matrix.
	ix.nblk = (n + (1 << blockShift) - 1) >> blockShift
	ix.blkVal = make([]float64, m*ix.nblk)
	ix.blkArg = make([]int32, m*ix.nblk)
	for i := 0; i < m; i++ {
		buildUnit(inj, int64(i), func() { ix.fillRowBlocks(i) })
	}

	// Row minima for RangeRowMinima, via the smawk Into-variants (one
	// pooled-workspace call for the whole array).
	ix.rowMin = make([]int32, m)
	buildUnit(inj, int64(m), func() { ix.fillRowMinima() })

	// The canonical hierarchy, leaves first.
	ix.nodes = make([]node, 0, 2*m-1)
	ix.buildNode(inj, 0, m)

	ix.bytes = int64(len(ix.blkVal))*8 + int64(len(ix.blkArg))*4 + int64(len(ix.rowMin))*4
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		ix.bytes += int64(len(nd.bp)+len(nd.own)+len(nd.ivArg)+len(nd.sp)+len(nd.pr))*4 +
			int64(len(nd.ivMax)+len(nd.pw))*8 + 32
	}
	return ix
}

// buildUnit runs one pure build unit under the fault discipline: a
// firing injector forces a deterministic recompute of the unit (the
// recovery mirrors the machines' recompute-on-fault), bounded by the
// injector's own attempt cap.
func buildUnit(inj *faults.Injector, unit int64, f func()) {
	for attempt := 0; ; attempt++ {
		f()
		if !inj.BuildFault(unit, attempt) {
			return
		}
	}
}

// fillRowBlocks computes row i's block maxima (leftmost argmax per
// 64-column block). Dense rows run the shared branchless kernel on the
// zero-copy row view — ArgMaxFinite skips +Inf (blocked) entries
// exactly as ev maps them to -Inf — and implicit rows pay one At per
// entry.
func (ix *Index) fillRowBlocks(i int) {
	base := i * ix.nblk
	var row []float64
	if ix.d != nil {
		row = ix.d.RowView(i)
	}
	for b := 0; b < ix.nblk; b++ {
		lo := b << blockShift
		hi := lo + (1 << blockShift)
		if hi > ix.n {
			hi = ix.n
		}
		if row != nil {
			ix.blkVal[base+b], ix.blkArg[base+b] = segMax(row, lo, hi)
			continue
		}
		best, barg := math.Inf(-1), int32(-1)
		for j := lo; j < hi; j++ {
			if v := ix.ev(i, j); v > best {
				best, barg = v, int32(j)
			}
		}
		ix.blkVal[base+b] = best
		ix.blkArg[base+b] = barg
	}
}

// segMax returns the maximum of row[x:y] and its leftmost column under
// the index contract: +Inf (blocked) never wins, an all-blocked
// segment answers (-Inf, -1). Segments here are at most one 64-column
// block, where a tight scalar loop over the slice beats the 4-wide
// branchless kernels (their lane setup and merge only amortize on long
// rows); the win over the generic path is skipping the per-entry
// interface call, not the loop shape.
func segMax(row []float64, x, y int) (float64, int32) {
	best, barg := math.Inf(-1), int32(-1)
	for j := x; j < y; j++ {
		v := row[j]
		if math.IsInf(v, 1) {
			continue
		}
		if v > best {
			best, barg = v, int32(j)
		}
	}
	return best, barg
}

// fillRowMinima computes the full-row leftmost minima table through the
// smawk Into-variants: the staircase solver for Staircase inputs (-1
// for fully blocked rows), plain SMAWK otherwise.
func (ix *Index) fillRowMinima() {
	out := make([]int, ix.m)
	if _, stair := ix.a.(marray.Staircase); stair {
		smawk.StaircaseRowMinimaInto(ix.a, out)
	} else {
		smawk.RowMinimaInto(ix.a, out)
	}
	for i, j := range out {
		ix.rowMin[i] = int32(j)
	}
}

// rowRangeMax returns the maximum of row r over columns [c1, c2]
// (inclusive) and its leftmost column, resolving whole blocks through
// the block-maxima table: O(B + n/B) work. Returns (-Inf, -1) when the
// range is entirely blocked.
func (ix *Index) rowRangeMax(r, c1, c2 int) (float64, int32) {
	b1, b2 := c1>>blockShift, c2>>blockShift
	if ix.d != nil {
		// Dense rows: the two boundary cuts run the branchless kernel
		// on subslices of the zero-copy row view, and the whole-block
		// run is one branchless scan over the stored block maxima.
		// Candidates fold in ascending column order under strict >,
		// which keeps the leftmost maximizer.
		row := ix.d.RowView(r)
		if b1 == b2 {
			return segMax(row, c1, c2+1)
		}
		best, barg := segMax(row, c1, (b1+1)<<blockShift)
		base := r * ix.nblk
		for b := base + b1 + 1; b < base+b2; b++ {
			if v := ix.blkVal[b]; v > best {
				best, barg = v, ix.blkArg[b]
			}
		}
		if v, j := segMax(row, b2<<blockShift, c2+1); v > best {
			best, barg = v, j
		}
		return best, barg
	}
	best, barg := math.Inf(-1), int32(-1)
	consider := func(v float64, j int32) {
		if v > best {
			best, barg = v, j
		}
	}
	if b1 == b2 {
		for j := c1; j <= c2; j++ {
			consider(ix.ev(r, j), int32(j))
		}
		return best, barg
	}
	for j := c1; j < (b1+1)<<blockShift; j++ {
		consider(ix.ev(r, j), int32(j))
	}
	base := r * ix.nblk
	for b := b1 + 1; b < b2; b++ {
		consider(ix.blkVal[base+b], ix.blkArg[base+b])
	}
	for j := b2 << blockShift; j <= c2; j++ {
		consider(ix.ev(r, j), int32(j))
	}
	return best, barg
}

// buildNode builds the hierarchy node for rows [lo, hi) and returns its
// index. Children are built first; the parent envelope is the merge of
// theirs.
func (ix *Index) buildNode(inj *faults.Injector, lo, hi int) int32 {
	v := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, node{lo: int32(lo), hi: int32(hi), left: -1, right: -1})
	if hi-lo == 1 {
		buildUnit(inj, int64(ix.m)+1+int64(v), func() { ix.leafEnvelope(v, lo) })
		return v
	}
	mid := (lo + hi) / 2
	l := ix.buildNode(inj, lo, mid)
	r := ix.buildNode(inj, mid, hi)
	ix.nodes[v].left, ix.nodes[v].right = l, r
	buildUnit(inj, int64(ix.m)+1+int64(v), func() { ix.mergeEnvelopes(v, l, r) })
	return v
}

// leafEnvelope fills node v for the single row lo: one interval owning
// every column.
func (ix *Index) leafEnvelope(v int32, lo int) {
	val, arg := ix.rowRangeMax(lo, 0, ix.n-1)
	nd := &ix.nodes[v]
	nd.bp = []int32{0, int32(ix.n)}
	nd.own = []int32{int32(lo)}
	nd.ivMax = []float64{val}
	nd.ivArg = []int32{arg}
	nd.buildSparse()
}

// envAt evaluates node v's envelope at column j: the value of the
// owning row there.
func (ix *Index) envAt(v int32, j int) float64 {
	nd := &ix.nodes[v]
	k := nd.findInterval(j)
	return ix.ev(int(nd.own[k]), j)
}

// mergeEnvelopes fills parent node v from children l (smaller rows) and
// r (larger rows). The two envelopes cross at most once: the smaller
// rows win a suffix of the columns (ties included — ties go to the
// smaller row), so the crossing column is found by binary search and
// the parent is r's envelope before it and l's from it on. Interval
// maxima are inherited except for the at-most-two intervals the
// crossing cuts, which are recomputed through the block-maxima table.
func (ix *Index) mergeEnvelopes(v, l, r int32) {
	n := ix.n
	cross := sort.Search(n, func(j int) bool {
		return ix.envAt(l, j) >= ix.envAt(r, j)
	})
	ln, rn := &ix.nodes[l], &ix.nodes[r]
	if cross == 0 {
		nd := &ix.nodes[v]
		nd.bp, nd.own, nd.ivMax, nd.ivArg = ln.bp, ln.own, ln.ivMax, ln.ivArg
		nd.sp, nd.spL = ln.sp, ln.spL
		nd.pw, nd.pr = ln.pw, ln.pr
		return
	}
	if cross == n {
		nd := &ix.nodes[v]
		nd.bp, nd.own, nd.ivMax, nd.ivArg = rn.bp, rn.own, rn.ivMax, rn.ivArg
		nd.sp, nd.spL = rn.sp, rn.spL
		nd.pw, nd.pr = rn.pw, rn.pr
		return
	}
	bp := make([]int32, 0, len(rn.own)+len(ln.own)+1)
	own := make([]int32, 0, len(rn.own)+len(ln.own))
	ivMax := make([]float64, 0, cap(own))
	ivArg := make([]int32, 0, cap(own))
	add := func(start int32, owner int32, val float64, arg int32) {
		bp = append(bp, start)
		own = append(own, owner)
		ivMax = append(ivMax, val)
		ivArg = append(ivArg, arg)
	}
	c := int32(cross)
	for k := range rn.own {
		start := rn.bp[k]
		if start >= c {
			break
		}
		if end := rn.bp[k+1]; end <= c {
			add(start, rn.own[k], rn.ivMax[k], rn.ivArg[k])
		} else {
			val, arg := ix.rowRangeMax(int(rn.own[k]), int(start), cross-1)
			add(start, rn.own[k], val, arg)
		}
	}
	for k := range ln.own {
		end := ln.bp[k+1]
		if end <= c {
			continue
		}
		if start := ln.bp[k]; start >= c {
			add(start, ln.own[k], ln.ivMax[k], ln.ivArg[k])
		} else {
			val, arg := ix.rowRangeMax(int(ln.own[k]), cross, int(end)-1)
			add(c, ln.own[k], val, arg)
		}
	}
	bp = append(bp, int32(n))
	nd := &ix.nodes[v]
	nd.bp, nd.own, nd.ivMax, nd.ivArg = bp, own, ivMax, ivArg
	nd.buildSparse()
	nd.buildPacked(n)
}

// buildPacked fills the node's packed predecessor structure when it
// has enough intervals to profit: one bit per interval start in a
// bitmap over the columns, plus per-word prefix ranks. findInterval is
// then rank(j) - 1 — a load, a mask, and a popcount.
func (nd *node) buildPacked(n int) {
	if len(nd.own) < packedMinIvals {
		return
	}
	words := (n + 63) >> 6
	nd.pw = make([]uint64, words)
	for _, start := range nd.bp[:len(nd.own)] {
		nd.pw[start>>6] |= 1 << (uint(start) & 63)
	}
	nd.pr = make([]int32, words)
	c := int32(0)
	for w, word := range nd.pw {
		nd.pr[w] = c
		c += int32(bits.OnesCount64(word))
	}
}

// buildSparse fills the node's sparse table: sp[l*K+k] is the best
// interval (largest maximum; ties to the smaller owner row, which is
// the larger interval index) among intervals [k, k+2^l).
func (nd *node) buildSparse() {
	k := len(nd.own)
	levels := 1
	for 1<<levels <= k {
		levels++
	}
	nd.spL = int32(levels)
	nd.sp = make([]int32, levels*k)
	for i := 0; i < k; i++ {
		nd.sp[i] = int32(i)
	}
	for l := 1; l < levels; l++ {
		half := 1 << (l - 1)
		for i := 0; i+(1<<l) <= k; i++ {
			nd.sp[l*k+i] = nd.betterInterval(nd.sp[(l-1)*k+i], nd.sp[(l-1)*k+i+half])
		}
	}
}

// betterInterval picks the winning interval: larger maximum, ties to
// the smaller owner row (owners are strictly decreasing in interval
// index, so distinct intervals never tie on both value and owner; a
// fully blocked pair resolves arbitrarily and is skipped at query
// time).
func (nd *node) betterInterval(x, y int32) int32 {
	vx, vy := nd.ivMax[x], nd.ivMax[y]
	if vy > vx || (vy == vx && nd.own[y] < nd.own[x]) {
		return y
	}
	return x
}

// rangeBest returns the best interval in [ka, kb] (inclusive, non-empty)
// via the sparse table: O(1).
func (nd *node) rangeBest(ka, kb int32) int32 {
	width := uint(kb - ka + 1)
	l := 0
	for 1<<(l+1) <= int(width) {
		l++
	}
	k := int32(len(nd.own))
	return nd.betterInterval(nd.sp[int32(l)*k+ka], nd.sp[int32(l)*k+kb+1-int32(1<<l)])
}

// findInterval returns the interval index containing column j: the
// number of interval starts at or before j, minus one. Packed nodes
// answer with one masked popcount (bp[0] = 0 guarantees rank >= 1);
// small nodes walk their breakpoints forward (the walk ends because
// bp[K] = n > j); mid nodes binary-search bp.
func (nd *node) findInterval(j int) int32 {
	if nd.pw != nil {
		w := j >> 6
		return int32(int(nd.pr[w])+smawk.Rank64(nd.pw[w], uint(j&63))) - 1
	}
	if len(nd.own) <= walkMaxIvals {
		k := int32(0)
		for int(nd.bp[k+1]) <= j {
			k++
		}
		return k
	}
	idx := sort.Search(len(nd.bp), func(i int) bool { return int(nd.bp[i]) > j })
	return int32(idx - 1)
}

// Rows returns the number of rows of the indexed array.
func (ix *Index) Rows() int { return ix.m }

// Cols returns the number of columns of the indexed array.
func (ix *Index) Cols() int { return ix.n }

// Bytes returns the index's approximate memory footprint, excluding the
// input array itself: the block-maxima and row-minima tables plus every
// node's envelope and sparse table.
func (ix *Index) Bytes() int64 { return ix.bytes }

// Breakpoints returns the total number of envelope intervals across all
// hierarchy nodes, the O(m log m) quantity that dominates the envelope
// storage.
func (ix *Index) Breakpoints() int {
	total := 0
	for i := range ix.nodes {
		total += len(ix.nodes[i].own)
	}
	return total
}

// CheckSubmatrix validates a SubmatrixMax query range without running
// it, for front ends that must fail fast on the calling goroutine.
func (ix *Index) CheckSubmatrix(r1, r2, c1, c2 int) error {
	if r1 < 0 || r2 < r1 || r2 >= ix.m || c1 < 0 || c2 < c1 || c2 >= ix.n {
		return merr.Errorf(merr.ErrDimensionMismatch,
			"mindex: SubmatrixMax[%d:%d, %d:%d] out of range for %dx%d index",
			r1, r2, c1, c2, ix.m, ix.n)
	}
	return nil
}

// CheckRowRange validates a RangeRowMinima query range without running
// it.
func (ix *Index) CheckRowRange(r1, r2 int) error {
	if r1 < 0 || r2 < r1 || r2 >= ix.m {
		return merr.Errorf(merr.ErrDimensionMismatch,
			"mindex: RangeRowMinima[%d:%d] out of range for %dx%d index",
			r1, r2, ix.m, ix.n)
	}
	return nil
}

// cutRef is one boundary cut deferred to a query's scan phase:
// interval k of node nd restricted to columns [x, y].
type cutRef struct {
	nd   *node
	k    int32
	x, y int32
}

// cutStack collects the deferred cuts of one query. Its fixed capacity
// covers two cuts for each of the at-most-2*lg(m) canonical nodes of
// any query against any practical m; if it ever fills, further cuts
// simply scan immediately, which is always correct.
type cutStack struct {
	n int
	c [128]cutRef
}

// SubmatrixMax returns the maximum entry of the inclusive rectangle
// [r1,r2] x [c1,c2] with the lexicographically smallest (row, col)
// among maximizers; +Inf entries never win, and a fully blocked
// rectangle answers {-1, -1, -Inf}. Throws merr.ErrDimensionMismatch
// for an out-of-range rectangle.
//
// The query runs in two phases. The descent phase resolves everything
// answerable from tables alone — whole-interval runs via the sparse
// tables, boundary cuts whose stored argmax survives the cut — and
// defers every cut that would have to rescan a row of the input. The
// scan phase then processes the deferred cuts best-first: almost all
// of them are pruned by the interval upper bound against the
// table-phase maximum, so a typical query touches the input array for
// at most one or two cuts. On inputs far larger than the caches those
// row touches are the only cache-cold traffic, which is what keeps
// tail latency near-flat in n. Candidate order never affects the
// answer: consider's order is total on (val, row, col).
func (ix *Index) SubmatrixMax(r1, r2, c1, c2 int) Pos {
	if err := ix.CheckSubmatrix(r1, r2, c1, c2); err != nil {
		merr.Throw(err)
	}
	best := Pos{Row: -1, Col: -1, Val: math.Inf(-1)}
	var st cutStack
	ix.query(0, r1, r2+1, c1, c2, &best, &st)
	if st.n > 0 {
		// Scan the largest upper bound first so the remaining cuts
		// prune against the strongest possible best.
		top := 0
		for i := 1; i < st.n; i++ {
			if st.c[i].nd.ivMax[st.c[i].k] > st.c[top].nd.ivMax[st.c[top].k] {
				top = i
			}
		}
		d := st.c[top]
		ix.scanCut(d.nd, d.k, int(d.x), int(d.y), &best)
		for i := 0; i < st.n; i++ {
			if i == top {
				continue
			}
			d := st.c[i]
			ix.scanCut(d.nd, d.k, int(d.x), int(d.y), &best)
		}
	}
	return best
}

// query descends the hierarchy from node v, resolving canonical nodes
// fully inside rows [r1, r2).
func (ix *Index) query(v int32, r1, r2, c1, c2 int, best *Pos, st *cutStack) {
	nd := &ix.nodes[v]
	if r1 <= int(nd.lo) && int(nd.hi) <= r2 {
		ix.scanNode(nd, c1, c2, best, st)
		return
	}
	mid := int(ix.nodes[nd.left].hi)
	if r1 < mid {
		ix.query(nd.left, r1, r2, c1, c2, best, st)
	}
	if r2 > mid {
		ix.query(nd.right, r1, r2, c1, c2, best, st)
	}
}

// consider merges one candidate into the running best under the
// deterministic contract: larger value, then smaller row, then smaller
// column. Blocked candidates (-Inf) are skipped so a fully blocked
// query keeps the {-1, -1} sentinel.
func consider(best *Pos, val float64, row, col int32) {
	if math.IsInf(val, -1) {
		return
	}
	if val > best.Val ||
		(val == best.Val && (int(row) < best.Row || (int(row) == best.Row && int(col) < best.Col))) {
		best.Val, best.Row, best.Col = val, int(row), int(col)
	}
}

// scanNode answers max over the node's whole row block restricted to
// columns [c1, c2]: the at-most-two cut intervals resolve through the
// stored interval maximum when its argmax survives the cut (O(1)) or
// the block-maxima table otherwise, and the run of whole intervals
// between them through the sparse table (O(1)).
func (ix *Index) scanNode(nd *node, c1, c2 int, best *Pos, st *cutStack) {
	kl := nd.findInterval(c1)
	kr := nd.findInterval(c2)
	if kl == kr {
		ix.cutInterval(nd, kl, c1, c2, best, st)
		return
	}
	if kl+1 <= kr-1 {
		k := nd.rangeBest(kl+1, kr-1)
		consider(best, nd.ivMax[k], nd.own[k], nd.ivArg[k])
	}
	ix.cutInterval(nd, kl, c1, int(nd.bp[kl+1])-1, best, st)
	ix.cutInterval(nd, kr, int(nd.bp[kr]), c2, best, st)
}

// cutInterval considers interval k restricted to columns [x, y]. When
// the restriction keeps the whole interval, or the stored leftmost
// argmax falls inside the cut (in which case it is also the cut's
// leftmost maximizer), the stored answer is reused; any other cut is
// deferred to the query's scan phase.
func (ix *Index) cutInterval(nd *node, k int32, x, y int, best *Pos, st *cutStack) {
	if arg := nd.ivArg[k]; (x == int(nd.bp[k]) && y == int(nd.bp[k+1])-1) ||
		(arg >= 0 && int(arg) >= x && int(arg) <= y) {
		consider(best, nd.ivMax[k], nd.own[k], arg)
		return
	}
	if st.n < len(st.c) {
		st.c[st.n] = cutRef{nd: nd, k: k, x: int32(x), y: int32(y)}
		st.n++
		return
	}
	ix.scanCut(nd, k, x, y, best)
}

// scanCut resolves one deferred cut: the stored interval maximum — an
// upper bound on the cut's maximum — prunes the scan whenever no value
// the cut could yield would improve best (any cut maximizer has row
// own[k] and column >= x, so the bound extends to the tie-breaking
// order); an unpruned cut recomputes the owner's row-range maximum
// from the block-maxima table and the row itself.
func (ix *Index) scanCut(nd *node, k int32, x, y int, best *Pos) {
	if v, row := nd.ivMax[k], int(nd.own[k]); v < best.Val ||
		(v == best.Val && (row > best.Row || (row == best.Row && x >= best.Col))) {
		return
	}
	val, arg := ix.rowRangeMax(int(nd.own[k]), x, y)
	consider(best, val, nd.own[k], arg)
}

// RangeRowMinima returns, for each row in the inclusive range [r1, r2],
// the column of its leftmost minimum over the full column span — index
// r1 first — exactly as smawk.RowMinima would answer row by row (for
// staircase inputs, smawk.StaircaseRowMinima: -1 marks fully blocked
// rows). The table is precomputed at Build; a query is one bounded
// copy. Throws merr.ErrDimensionMismatch for an out-of-range row range.
func (ix *Index) RangeRowMinima(r1, r2 int) []int {
	if err := ix.CheckRowRange(r1, r2); err != nil {
		merr.Throw(err)
	}
	out := make([]int, r2-r1+1)
	for i := range out {
		out[i] = int(ix.rowMin[r1+i])
	}
	return out
}

// SubmatrixMaxBrute is the O(area) oracle for SubmatrixMax: an
// exhaustive scan applying the identical value and tie-breaking
// contract. Tests compare the index against it entry for entry.
func SubmatrixMaxBrute(a marray.Matrix, r1, r2, c1, c2 int) Pos {
	best := Pos{Row: -1, Col: -1, Val: math.Inf(-1)}
	for i := r1; i <= r2; i++ {
		for j := c1; j <= c2; j++ {
			v := a.At(i, j)
			if math.IsInf(v, 1) {
				continue
			}
			if v > best.Val {
				best = Pos{Row: i, Col: j, Val: v}
			}
		}
	}
	return best
}
