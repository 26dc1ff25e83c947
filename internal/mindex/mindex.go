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
// binary search. Each node also stores per-interval maxima with a
// sparse table over them, so the maximum of any run of whole intervals
// is found in O(1).
//
// The same hierarchy over the transpose answers the one question the
// row hierarchy cannot: the maximum of a single row over a column
// range. Each canonical column block stores, for every row, the
// block's leftmost argmax column; by the same Monge argument that owner
// column is nonincreasing in the row, so a column node is just its
// breakpoints and owners, merged by one binary-searched crossing. A
// single-row range maximum decomposes the range into O(log n) canonical
// column blocks and reads one entry in each. Leaf envelopes, the
// interval maxima of merged nodes and a query's boundary cuts all
// resolve through it, so Build reads O((m+n) log m log n) entries —
// O(n log m) for the column merges, O(log n) per interval of the row
// hierarchy, O(m+n) for the row minima — and never the whole array.
//
// A query [r1,r2] x [c1,c2] decomposes the row range into O(log m)
// canonical nodes. In each node the column range cuts at most two
// breakpoint intervals; whole intervals are answered by the sparse
// table, and a cut interval whose stored argmax falls outside the cut
// is answered by the column hierarchy: O(log m log n) envelope steps
// and O(log n) entry reads per cut, never the O(m + n) of an uncached
// SMAWK call.
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
// from any number of goroutines; inputs are evaluated directly, since
// the build reads a polylogarithmic number of entries per row and
// column and a query's boundary cuts read a few dozen. The build path
// participates in the repository's deterministic fault discipline: an
// injector (Opts.Faults, defaulting to the process-wide one) can
// declare any build unit transiently faulty, and Build recomputes
// that unit — results are pure, so recovery is index-exact by
// construction.
package mindex

import (
	"math"
	"math/bits"
	"sort"
	"unsafe"

	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/smawk"
)

// walkMaxIvals and packedMinIvals split findInterval into three
// regimes by interval count K. Small envelopes (K <= walkMaxIvals) walk
// their handful of breakpoints forward — fewer than one cache line of
// bp, and the walk beats any structure. Mid envelopes binary-search bp,
// whose few hundred bytes the cut path pulls into cache anyway. Only
// large envelopes (K >= packedMinIvals) carry the packed predecessor
// bitmap over their breakpoints, where locating an interval is one
// masked popcount — the predecessor-search view of the query (arXiv
// 1502.07663) — touching two cache lines where a binary search over a
// multi-KB bp would take log K cold probes. Only nodes spanning >=
// packedMinIvals rows (columns) can reach the packed regime, so the
// bitmaps cost O((m/packedMinIvals) * n/64) words on the row side, and
// the transpose on the column side.
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

// env is one canonical block's upper envelope over the other axis
// (columns for a row block, rows for a column block). bp holds K+1
// breakpoints (bp[0] = 0, bp[K] = the axis length); own[k] owns
// positions [bp[k], bp[k+1]) and is strictly decreasing in k.
// Envelopes with >= packedMinIvals intervals carry pk, their packed
// predecessor structure.
type env struct {
	bp  []int32
	own []int32
	pk  *packed
}

// packed is a bitmap over an envelope's axis with one bit set per
// interval start (pw) and the per-word prefix ranks (pr), so
// findInterval is a single masked popcount.
type packed struct {
	pw []uint64
	pr []int32
}

// node is one canonical row block of the hierarchy: its column
// envelope plus, per interval, the maximum value and its leftmost
// column (-1 when the interval is entirely blocked), and sp, the
// flattened sparse table over intervals (stride K).
type node struct {
	env
	ivMax []float64
	ivArg []int32
	sp    []int32
}

// Index answers submatrix maximum and row-range minima queries over one
// Monge or staircase-Monge array. Build it with Build; it is immutable
// afterwards and safe for concurrent use.
//
// Both hierarchies are stored in preorder: the node for block [lo, hi)
// at position v has its children [lo, mid) at v+1 and [mid, hi) at
// v+2*(mid-lo), with mid = (lo+hi)/2, so no node stores its range or
// its links.
type Index struct {
	a    marray.Matrix // the input, evaluated directly
	m, n int

	rowMin []int32 // per-row leftmost full-row minima (-1: row all blocked)

	nodes []node // row hierarchy, 2m-1 nodes
	cols  []env  // column hierarchy, 2n-1 nodes
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

	// Row minima for RangeRowMinima, via the smawk Into-variants (one
	// pooled-workspace call for the whole array). Build unit 0.
	ix.rowMin = make([]int32, m)
	buildUnit(inj, 0, func() { ix.fillRowMinima() })

	b := &buildState{Index: ix, inj: inj,
		ids:   make([]int32, max(m, n)),
		colBP: []int32{0, int32(m)}, rowBP: []int32{0, int32(n)},
		leafMax: make([]float64, m), leafArg: make([]int32, m), leafSP: []int32{0}}
	for i := range b.ids {
		b.ids[i] = int32(i)
	}
	// The column hierarchy first (units 1 .. 2n-1): every row-side
	// interval maximum resolves through it.
	ix.cols = make([]env, 2*n-1)
	b.buildCols(0, 0, n)

	// The row hierarchy (units 2n .. 2n+2m-2).
	ix.nodes = make([]node, 2*m-1)
	b.buildRows(0, 0, m)

	ix.bytes = int64(cap(ix.rowMin)) * 4
	for i := range ix.nodes {
		nd := &ix.nodes[i]
		ix.bytes += int64(unsafe.Sizeof(node{})-unsafe.Sizeof(env{})) + nd.env.bytes() +
			int64(cap(nd.ivArg)+cap(nd.sp))*4 + int64(cap(nd.ivMax))*8
	}
	for i := range ix.cols {
		ix.bytes += ix.cols[i].bytes()
	}
	return ix
}

// bytes is the envelope's footprint: the env itself, the capacity of its
// arrays, and its packed structure when it has one.
func (e *env) bytes() int64 {
	b := int64(unsafe.Sizeof(env{})) + int64(cap(e.bp)+cap(e.own))*4
	if e.pk != nil {
		b += int64(unsafe.Sizeof(packed{})) + int64(cap(e.pk.pr))*4 + int64(cap(e.pk.pw))*8
	}
	return b
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

// buildState carries one Build: its fault injector and the arrays that
// back every leaf of both hierarchies, so leaves allocate nothing of
// their own.
type buildState struct {
	*Index
	inj     *faults.Injector
	ids     []int32   // 0 .. max(m, n)-1: the leaves' owners
	colBP   []int32   // {0, m}: every column leaf's breakpoints
	rowBP   []int32   // {0, n}: every row leaf's breakpoints
	leafMax []float64 // row leaf maxima, by row
	leafArg []int32   // row leaf argmax columns, by row
	leafSP  []int32   // {0}: every one-interval sparse table
}

// buildCols builds column node v for columns [lo, hi). A leaf is its
// own column's envelope: the column owns every row, with no reads. A
// parent merges its children's envelopes at their crossing row.
func (b *buildState) buildCols(v int32, lo, hi int) {
	if hi-lo == 1 {
		b.cols[v] = env{bp: b.colBP, own: b.ids[lo : lo+1 : lo+1]}
		return
	}
	mid := (lo + hi) / 2
	l, r := v+1, v+int32(2*(mid-lo))
	b.buildCols(l, lo, mid)
	b.buildCols(r, mid, hi)
	buildUnit(b.inj, 1+int64(v), func() {
		ln, rn := &b.cols[l], &b.cols[r]
		b.cols[v] = splice(ln, rn, crossing(ln, rn, b.m, b.colEnvAt), b.m)
	})
}

// buildRows builds row node v for rows [lo, hi). A leaf is its row's
// envelope: the row owns every column, and its one interval maximum is
// the row's. A parent merges its children's envelopes at their
// crossing column and inherits the whole child when the crossing
// leaves nothing to the other one.
func (b *buildState) buildRows(v int32, lo, hi int) {
	unit := int64(len(b.cols)) + 1 + int64(v)
	if hi-lo == 1 {
		buildUnit(b.inj, unit, func() {
			b.leafMax[lo], b.leafArg[lo] = b.rowRangeMax(lo, 0, b.n-1)
			b.nodes[v] = node{env: env{bp: b.rowBP, own: b.ids[lo : lo+1 : lo+1]},
				ivMax: b.leafMax[lo : lo+1 : lo+1], ivArg: b.leafArg[lo : lo+1 : lo+1], sp: b.leafSP}
		})
		return
	}
	mid := (lo + hi) / 2
	l, r := v+1, v+int32(2*(mid-lo))
	b.buildRows(l, lo, mid)
	b.buildRows(r, mid, hi)
	buildUnit(b.inj, unit, func() {
		ln, rn := &b.nodes[l], &b.nodes[r]
		switch cross := crossing(&ln.env, &rn.env, b.n, b.rowEnvAt); cross {
		case 0:
			b.nodes[v] = *ln
		case b.n:
			b.nodes[v] = *rn
		default:
			b.fillMaxima(v, splice(&ln.env, &rn.env, cross, b.n))
		}
	})
}

// fillMaxima sets row node v to envelope e with each interval's maximum
// and leftmost argmax, read from the column hierarchy, and the sparse
// table over them.
func (ix *Index) fillMaxima(v int32, e env) {
	k := len(e.own)
	nd := node{env: e, ivMax: make([]float64, k), ivArg: make([]int32, k)}
	for i, row := range e.own {
		nd.ivMax[i], nd.ivArg[i] = ix.rowRangeMax(int(row), int(e.bp[i]), int(e.bp[i+1])-1)
	}
	nd.buildSparse()
	ix.nodes[v] = nd
}

// rowEnvAt evaluates a row node's envelope at column j: the value of
// the owning row there.
func (ix *Index) rowEnvAt(e *env, j int) float64 {
	return ix.ev(int(e.own[e.findInterval(j)]), j)
}

// colEnvAt evaluates a column node's envelope at row i: the value of
// the owning column there.
func (ix *Index) colEnvAt(e *env, i int) float64 {
	return ix.ev(i, int(e.own[e.findInterval(i)]))
}

// crossing returns where envelopes l (smaller owners) and r (larger
// owners) over an axis of length n cross, given at, the value of an
// envelope at a position: the first position where l is at least r,
// or n. The two cross at most once: the smaller owners win a suffix of
// the axis (ties included — ties go to the smaller owner), so the
// crossing is a binary search.
func crossing(l, r *env, n int, at func(e *env, p int) float64) int {
	return sort.Search(n, func(p int) bool { return at(l, p) >= at(r, p) })
}

// splice returns the merge of envelopes l and r that cross at cross:
// r's envelope before it and l's from it on. A crossing at either end
// returns that child's envelope itself.
func splice(l, r *env, cross, n int) env {
	switch cross {
	case 0:
		return *l
	case n:
		return *r
	}
	// r keeps its intervals [0, kr), the one holding cross-1 cut short;
	// l keeps [kl, K), the one holding cross starting there.
	kr := int(r.findInterval(cross-1)) + 1
	kl := int(l.findInterval(cross))
	k := kr + len(l.own) - kl
	buf := make([]int32, 2*k+1)
	e := env{bp: buf[: k+1 : k+1], own: buf[k+1:]}
	copy(e.bp, r.bp[:kr])
	copy(e.own, r.own[:kr])
	copy(e.bp[kr:], l.bp[kl:])
	copy(e.own[kr:], l.own[kl:])
	e.bp[kr] = int32(cross)
	e.buildPacked(n)
	return e
}

// rowRangeMax returns the maximum of row r over columns [x, y]
// (inclusive) and its leftmost column, from the O(log n) canonical
// column blocks covering the range: one envelope lookup and one entry
// read each. Returns (-Inf, -1) when the range is entirely blocked.
func (ix *Index) rowRangeMax(r, x, y int) (float64, int32) {
	best, arg := math.Inf(-1), int32(-1)
	ix.colRangeMax(0, 0, ix.n, r, x, y+1, &best, &arg)
	return best, arg
}

// colRangeMax folds the canonical column blocks of [x, y) under node v
// (columns [lo, hi)) into best/arg, left to right under strict >, so
// the leftmost maximizer wins.
func (ix *Index) colRangeMax(v int32, lo, hi, r, x, y int, best *float64, arg *int32) {
	if x <= lo && hi <= y {
		e := &ix.cols[v]
		c := e.own[e.findInterval(r)]
		if val := ix.ev(r, int(c)); val > *best {
			*best, *arg = val, c
		}
		return
	}
	mid := (lo + hi) / 2
	if x < mid {
		ix.colRangeMax(v+1, lo, mid, r, x, y, best, arg)
	}
	if y > mid {
		ix.colRangeMax(v+int32(2*(mid-lo)), mid, hi, r, x, y, best, arg)
	}
}

// buildPacked fills the envelope's packed predecessor structure when
// it has enough intervals to profit: one bit per interval start in a
// bitmap over the axis, plus per-word prefix ranks. findInterval is
// then rank(j) - 1 — a load, a mask, and a popcount.
func (e *env) buildPacked(n int) {
	if len(e.own) < packedMinIvals {
		return
	}
	words := (n + 63) >> 6
	pk := &packed{pw: make([]uint64, words), pr: make([]int32, words)}
	for _, start := range e.bp[:len(e.own)] {
		pk.pw[start>>6] |= 1 << (uint(start) & 63)
	}
	c := int32(0)
	for w, word := range pk.pw {
		pk.pr[w] = c
		c += int32(bits.OnesCount64(word))
	}
	e.pk = pk
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

// findInterval returns the interval index containing position j: the
// number of interval starts at or before j, minus one. Packed
// envelopes answer with one masked popcount (bp[0] = 0 guarantees rank
// >= 1); small ones walk their breakpoints forward (the walk ends
// because bp[K] > j); mid ones binary-search bp.
func (e *env) findInterval(j int) int32 {
	if pk := e.pk; pk != nil {
		w := j >> 6
		return int32(int(pk.pr[w])+smawk.Rank64(pk.pw[w], uint(j&63))) - 1
	}
	if len(e.own) <= walkMaxIvals {
		k := int32(0)
		for int(e.bp[k+1]) <= j {
			k++
		}
		return k
	}
	idx := sort.Search(len(e.bp), func(i int) bool { return int(e.bp[i]) > j })
	return int32(idx - 1)
}

// Rows returns the number of rows of the indexed array.
func (ix *Index) Rows() int { return ix.m }

// Cols returns the number of columns of the indexed array.
func (ix *Index) Cols() int { return ix.n }

// Bytes returns the index's approximate memory footprint, excluding the
// input array itself: the row-minima table, every row node's envelope,
// interval maxima and sparse table, and every column node's envelope.
// Each node counts its struct size (node, env, packed) plus the capacity
// of its arrays; an array that several nodes share counts for each.
func (ix *Index) Bytes() int64 { return ix.bytes }

// Breakpoints returns the total number of envelope intervals across all
// row hierarchy nodes, the O(m log m) quantity that dominates the
// envelope storage.
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
// defers every cut that would have to read the input. The scan phase
// then processes the deferred cuts best-first: almost all of them are
// pruned by the interval upper bound against the table-phase maximum,
// so a typical query reads the input for at most one or two cuts.
// Candidate order never affects the answer: consider's order is total
// on (val, row, col).
func (ix *Index) SubmatrixMax(r1, r2, c1, c2 int) Pos {
	if err := ix.CheckSubmatrix(r1, r2, c1, c2); err != nil {
		merr.Throw(err)
	}
	best := Pos{Row: -1, Col: -1, Val: math.Inf(-1)}
	var st cutStack
	ix.query(0, 0, ix.m, r1, r2+1, c1, c2, &best, &st)
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

// query descends the row hierarchy from node v (rows [lo, hi)),
// resolving canonical nodes fully inside rows [r1, r2).
func (ix *Index) query(v int32, lo, hi, r1, r2, c1, c2 int, best *Pos, st *cutStack) {
	if r1 <= lo && hi <= r2 {
		ix.scanNode(&ix.nodes[v], c1, c2, best, st)
		return
	}
	mid := (lo + hi) / 2
	if r1 < mid {
		ix.query(v+1, lo, mid, r1, r2, c1, c2, best, st)
	}
	if r2 > mid {
		ix.query(v+int32(2*(mid-lo)), mid, hi, r1, r2, c1, c2, best, st)
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
// the column hierarchy otherwise, and the run of whole intervals
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
// upper bound on the cut's maximum — prunes the cut whenever no value
// it could yield would improve best (any cut maximizer has row own[k]
// and column >= x, so the bound extends to the tie-breaking order); an
// unpruned cut asks the column hierarchy for the owner's maximum over
// the cut.
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
