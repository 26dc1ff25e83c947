package mindex_test

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/mindex"
	"monge/internal/smawk"
)

// catchErr runs f under the repository's panic transport and returns
// the typed error it throws, if any.
func catchErr(f func()) (err error) {
	defer merr.Catch(&err)
	f()
	return nil
}

// stairOf wraps a dense staircase-Monge matrix (finite entries then
// +Inf, right/down-closed) in a StairFunc so the index sees the
// Staircase interface, as serving inputs do.
func stairOf(d *marray.Dense) marray.Matrix {
	m := d.Rows()
	bound := make([]int, m)
	for i := 0; i < m; i++ {
		bound[i] = marray.BoundaryOf(d, i)
	}
	return marray.StairFunc{M: m, N: d.Cols(), F: d.At, Bound: func(i int) int { return bound[i] }}
}

// infHeavyStair is a staircase-Monge matrix whose blocked region
// dominates: boundaries hug the left edge, so most entries are +Inf and
// some rows are fully blocked.
func infHeavyStair(rng *rand.Rand, m, n int) marray.Matrix {
	d := marray.RandomStaircaseMonge(rng, m, n)
	bound := make([]int, m)
	b := n/4 + 1
	for i := range bound {
		if i > 0 && b > 0 && rng.Intn(2) == 0 {
			b -= rng.Intn(b + 1)
		}
		if lim := marray.BoundaryOf(d, i); b > lim {
			b = lim
		}
		bound[i] = b
	}
	return marray.StairFunc{M: m, N: n, F: d.At, Bound: func(i int) int { return bound[i] }}
}

// The table suite's matrix families. Every generator yields a Monge or
// staircase-Monge array of the requested shape.
var families = []struct {
	name string
	gen  func(rng *rand.Rand, m, n int) marray.Matrix
}{
	{"dense-int-ties", func(rng *rand.Rand, m, n int) marray.Matrix {
		return marray.RandomMongeInt(rng, m, n, 12)
	}},
	{"func", func(rng *rand.Rand, m, n int) marray.Matrix {
		d := marray.RandomMonge(rng, m, n)
		return marray.Func{M: m, N: n, F: d.At}
	}},
	{"inf-heavy-staircase", infHeavyStair},
	{"all-ties", func(rng *rand.Rand, m, n int) marray.Matrix {
		return marray.Func{M: m, N: n, F: func(i, j int) float64 { return 7 }}
	}},
}

// shapes is the size grid of the differential table suite: the
// degenerate shapes, both sides of the power-of-two boundary, and one
// large instance.
var shapes = []struct{ m, n int }{
	{1, 1},
	{1, 37},
	{37, 1},
	{63, 63},
	{64, 64},
	{1024, 1024},
}

// queryRect draws a random inclusive rectangle inside an m x n array.
func queryRect(rng *rand.Rand, m, n int) (r1, r2, c1, c2 int) {
	r1 = rng.Intn(m)
	r2 = r1 + rng.Intn(m-r1)
	c1 = rng.Intn(n)
	c2 = c1 + rng.Intn(n-c1)
	return
}

// cornerRects enumerates the deterministic rectangles every instance is
// checked on: full span, single cells, single rows/columns, and the
// quadrant cuts that cross block and breakpoint boundaries.
func cornerRects(m, n int) [][4]int {
	rs := [][4]int{
		{0, m - 1, 0, n - 1},
		{0, 0, 0, 0},
		{m - 1, m - 1, n - 1, n - 1},
		{0, 0, 0, n - 1},
		{0, m - 1, 0, 0},
		{m / 2, m / 2, 0, n - 1},
		{0, m - 1, n / 2, n / 2},
		{m / 2, m - 1, n / 2, n - 1},
		{0, m / 2, 0, n / 2},
	}
	if m >= 2 && n >= 2 {
		rs = append(rs, [4]int{1, m - 1, 1, n - 2}, [4]int{m / 3, 2 * m / 3, n / 3, 2 * n / 3})
	}
	return rs
}

func checkRect(t *testing.T, ix *mindex.Index, a marray.Matrix, r1, r2, c1, c2 int) {
	t.Helper()
	got := ix.SubmatrixMax(r1, r2, c1, c2)
	want := mindex.SubmatrixMaxBrute(a, r1, r2, c1, c2)
	if got != want {
		t.Fatalf("SubmatrixMax[%d:%d, %d:%d] = %+v, brute oracle %+v", r1, r2, c1, c2, got, want)
	}
}

func checkRowRange(t *testing.T, ix *mindex.Index, oracle []int, r1, r2 int) {
	t.Helper()
	got := ix.RangeRowMinima(r1, r2)
	if len(got) != r2-r1+1 {
		t.Fatalf("RangeRowMinima[%d:%d] length %d, want %d", r1, r2, len(got), r2-r1+1)
	}
	for i, j := range got {
		if j != oracle[r1+i] {
			t.Fatalf("RangeRowMinima[%d:%d][%d] = %d, oracle %d", r1, r2, i, j, oracle[r1+i])
		}
	}
}

// rowMinOracle is the brute row-minima oracle matching the index's
// contract: leftmost minima, -1 for fully blocked rows.
func rowMinOracle(a marray.Matrix) []int {
	if _, stair := a.(marray.Staircase); stair {
		return smawk.StaircaseRowMinimaBrute(a)
	}
	return smawk.RowMinimaBrute(a)
}

// TestIndexMatchesBruteTable is the differential table suite: every
// shape x family instance is indexed and checked — corner rectangles
// plus random ones — against the O(area) brute oracle and the brute
// row-minima oracle, index-exact.
func TestIndexMatchesBruteTable(t *testing.T) {
	for _, sh := range shapes {
		for _, fam := range families {
			t.Run(fam.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(41*sh.m + sh.n)))
				a := fam.gen(rng, sh.m, sh.n)
				ix := mindex.Build(a, mindex.Opts{})
				if ix.Rows() != sh.m || ix.Cols() != sh.n {
					t.Fatalf("index is %dx%d, want %dx%d", ix.Rows(), ix.Cols(), sh.m, sh.n)
				}
				for _, r := range cornerRects(sh.m, sh.n) {
					checkRect(t, ix, a, r[0], r[1], r[2], r[3])
				}
				queries := 60
				if sh.m*sh.n > 100_000 {
					queries = 25 // the brute oracle is O(area)
				}
				for q := 0; q < queries; q++ {
					r1, r2, c1, c2 := queryRect(rng, sh.m, sh.n)
					checkRect(t, ix, a, r1, r2, c1, c2)
				}
				oracle := rowMinOracle(a)
				checkRowRange(t, ix, oracle, 0, sh.m-1)
				for q := 0; q < 20; q++ {
					r1 := rng.Intn(sh.m)
					r2 := r1 + rng.Intn(sh.m-r1)
					checkRowRange(t, ix, oracle, r1, r2)
				}
			})
		}
	}
}

// TestIndexAgainstSMAWKWindow cross-checks the index against the
// repository's SMAWK kernels on whole windows: the window's row maxima
// reduce to the submatrix maximum under the same leftmost contract.
func TestIndexAgainstSMAWKWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a := marray.RandomMongeInt(rng, 200, 171, 9)
	ix := mindex.Build(a, mindex.Opts{})
	for q := 0; q < 50; q++ {
		r1, r2, c1, c2 := queryRect(rng, 200, 171)
		w := marray.Window(a, r1, c1, r2-r1+1, c2-c1+1)
		maxima := smawk.MongeRowMaxima(w)
		want := mindex.Pos{Row: -1, Col: -1, Val: math.Inf(-1)}
		for i, j := range maxima {
			if v := w.At(i, j); v > want.Val {
				want = mindex.Pos{Row: r1 + i, Col: c1 + j, Val: v}
			}
		}
		if got := ix.SubmatrixMax(r1, r2, c1, c2); got != want {
			t.Fatalf("SubmatrixMax[%d:%d, %d:%d] = %+v, SMAWK window oracle %+v", r1, r2, c1, c2, got, want)
		}
	}
}

// TestIndexBlockedRectangle pins the fully blocked contract: a
// rectangle of +Inf entries answers {-1, -1, -Inf}.
func TestIndexBlockedRectangle(t *testing.T) {
	a := marray.StairFunc{M: 8, N: 8, F: func(i, j int) float64 { return float64(i + j) },
		Bound: func(i int) int { return 2 }}
	ix := mindex.Build(a, mindex.Opts{})
	got := ix.SubmatrixMax(0, 7, 3, 7)
	if got.Row != -1 || got.Col != -1 || !math.IsInf(got.Val, -1) {
		t.Fatalf("fully blocked rectangle answered %+v, want {-1 -1 -Inf}", got)
	}
	// The finite part is still served exactly.
	checkRect(t, ix, a, 0, 7, 0, 7)
	mins := ix.RangeRowMinima(0, 7)
	for i, j := range mins {
		if j != 0 {
			t.Fatalf("row %d leftmost minimum %d, want 0", i, j)
		}
	}
}

// TestIndexQueryValidation pins the typed out-of-range errors on both
// query kinds and on Build.
func TestIndexQueryValidation(t *testing.T) {
	ix := mindex.Build(marray.RandomMonge(rand.New(rand.NewSource(1)), 10, 10), mindex.Opts{})
	for _, r := range [][4]int{{-1, 0, 0, 0}, {0, 10, 0, 0}, {3, 2, 0, 0}, {0, 0, -1, 0}, {0, 0, 0, 10}, {0, 0, 5, 4}} {
		err := catchErr(func() { ix.SubmatrixMax(r[0], r[1], r[2], r[3]) })
		if !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Fatalf("SubmatrixMax%v error = %v, want ErrDimensionMismatch", r, err)
		}
	}
	for _, r := range [][2]int{{-1, 0}, {0, 10}, {5, 4}} {
		err := catchErr(func() { ix.RangeRowMinima(r[0], r[1]) })
		if !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Fatalf("RangeRowMinima%v error = %v, want ErrDimensionMismatch", r, err)
		}
	}
	if err := ix.CheckSubmatrix(0, 9, 0, 9); err != nil {
		t.Fatalf("CheckSubmatrix on a valid range: %v", err)
	}
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		err := catchErr(func() {
			mindex.Build(marray.Func{M: shape[0], N: shape[1], F: func(i, j int) float64 { return 0 }}, mindex.Opts{})
		})
		if !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Fatalf("Build(%dx%d) error = %v, want ErrDimensionMismatch", shape[0], shape[1], err)
		}
	}
}

// TestIndexBuildUnderFaults drives the build path at a heavy fault rate
// and requires bitwise-identical answers to a clean build: build units
// are pure, so recompute-on-fault recovery is index-exact. It also
// checks the injector actually fired.
func TestIndexBuildUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := marray.RandomMongeInt(rng, 300, 200, 10)
	clean := mindex.Build(a, mindex.Opts{Faults: faults.New(0, 0)})
	inj := faults.New(7, 0.2)
	faulty := mindex.Build(a, mindex.Opts{Faults: inj})
	if inj.Stats().BuildFaults == 0 {
		t.Fatal("injector at rate 0.2 delivered no build faults")
	}
	qrng := rand.New(rand.NewSource(6))
	for q := 0; q < 300; q++ {
		r1, r2, c1, c2 := queryRect(qrng, 300, 200)
		if g, w := faulty.SubmatrixMax(r1, r2, c1, c2), clean.SubmatrixMax(r1, r2, c1, c2); g != w {
			t.Fatalf("faulty-build answer %+v differs from clean build %+v", g, w)
		}
	}
	for i := 0; i < 300; i++ {
		if g, w := faulty.RangeRowMinima(i, i)[0], clean.RangeRowMinima(i, i)[0]; g != w {
			t.Fatalf("row %d: faulty-build minimum %d differs from clean %d", i, g, w)
		}
	}
}

// TestIndexConcurrentQueries hammers one index from many goroutines
// under -race: the index is immutable after Build, so every answer must
// equal the precomputed sequential one.
func TestIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := marray.RandomMonge(rng, 96, 96)
	a := marray.Func{M: 96, N: 96, F: d.At} // implicit: exercises the shared tile cache
	ix := mindex.Build(a, mindex.Opts{})
	type qa struct {
		r [4]int
		p mindex.Pos
	}
	qs := make([]qa, 400)
	for i := range qs {
		r1, r2, c1, c2 := queryRect(rng, 96, 96)
		qs[i] = qa{r: [4]int{r1, r2, c1, c2}, p: ix.SubmatrixMax(r1, r2, c1, c2)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(qs); i += 2 {
				q := qs[i]
				if got := ix.SubmatrixMax(q.r[0], q.r[1], q.r[2], q.r[3]); got != q.p {
					select {
					case errs <- "concurrent answer drifted from sequential":
					default:
					}
					return
				}
				if got := ix.RangeRowMinima(q.r[0], q.r[1]); got[0] != ix.RangeRowMinima(q.r[0], q.r[0])[0] {
					select {
					case errs <- "row-range answers disagree":
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestIndexFootprint sanity-checks the reported footprint: positive,
// and the envelope storage stays near-linear (O(m log m) intervals).
func TestIndexFootprint(t *testing.T) {
	m, n := 1024, 1024
	a := marray.RandomMonge(rand.New(rand.NewSource(3)), m, n)
	ix := mindex.Build(a, mindex.Opts{})
	if ix.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d, want > 0", ix.Bytes())
	}
	bpLimit := m * (11 + 2) // m rows x (log2(m)+2) levels
	if bp := ix.Breakpoints(); bp <= 0 || bp > bpLimit {
		t.Fatalf("Breakpoints() = %d, want in (0, %d]: envelope storage should be O(m log m)", bp, bpLimit)
	}
}

// TestQueryEvaluationsBeatSMAWK pins the index's algorithmic claim in
// entry evaluations, which no runner's load can perturb: on a seeded
// n=4096 input, the p95 over random rectangles of the entries one query
// reads, times minSpeedupP95, is at most what one smawk.RowMinima pass
// over the same input reads. The input is an implicit Func, so every
// read goes through At and is counted; Build's reads are not.
func TestQueryEvaluationsBeatSMAWK(t *testing.T) {
	const (
		n             = 4096
		queries       = 1000
		minSpeedupP95 = 12
	)
	rng := rand.New(rand.NewSource(1))
	d := marray.RandomMongeInt(rng, n, n, 8)
	var evals int64
	a := marray.Func{M: n, N: n, F: func(i, j int) float64 { evals++; return d.At(i, j) }}

	smawk.RowMinima(a)
	smawkEvals := evals

	ix := mindex.Build(a, mindex.Opts{})
	per := make([]int64, queries)
	for q := range per {
		r1, c1 := rng.Intn(n), rng.Intn(n)
		r2, c2 := r1+rng.Intn(n-r1), c1+rng.Intn(n-c1)
		evals = 0
		ix.SubmatrixMax(r1, r2, c1, c2)
		per[q] = evals
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	p95 := per[queries*95/100]
	t.Logf("smawk.RowMinima: %d evaluations; query p95: %d (%.1fx)", smawkEvals, p95, float64(smawkEvals)/float64(max(p95, 1)))
	if p95*minSpeedupP95 > smawkEvals {
		t.Fatalf("query p95 %d evaluations x %d > %d of one SMAWK pass", p95, minSpeedupP95, smawkEvals)
	}
}

// countingStair counts every At of a staircase input while keeping its
// Staircase interface, so Build still takes the staircase row-minima
// path.
type countingStair struct {
	marray.Staircase
	reads *int64
}

func (c countingStair) At(i, j int) float64 {
	*c.reads++
	return c.Staircase.At(i, j)
}

// ceilLg returns ⌈lg x⌉ for x >= 1.
func ceilLg(x int) int {
	l := 0
	for 1<<l < x {
		l++
	}
	return l
}

// TestBuildEvaluationsNearLinear pins the build's read bound: on seeded
// inputs, Build reads at most buildReadsC·(m+n)·⌈lg m⌉·⌈lg n⌉ entries —
// the column hierarchy answers every single-row range maximum in
// O(log n) reads, so no input entry is read merely to be tabulated. A
// build that reads every entry (m·n) fails at each size here.
func TestBuildEvaluationsNearLinear(t *testing.T) {
	const buildReadsC = 1
	var reads int64
	counting := func(a marray.Matrix) marray.Matrix {
		return marray.Func{M: a.Rows(), N: a.Cols(), F: func(i, j int) float64 { reads++; return a.At(i, j) }}
	}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		a    marray.Matrix
	}{
		{"monge-int-1024", counting(marray.RandomMongeInt(rng, 1024, 1024, 8))},
		{"monge-int-4096", counting(marray.RandomMongeInt(rng, 4096, 4096, 8))},
		{"inf-heavy-staircase-1024x2048", countingStair{marray.RandomInfHeavyStaircase(rng, 1024, 2048), &reads}},
	}
	for _, tc := range cases {
		m, n := tc.a.Rows(), tc.a.Cols()
		reads = 0
		ix := mindex.Build(tc.a, mindex.Opts{Faults: faults.New(0, 0)})
		bound := int64(buildReadsC * (m + n) * ceilLg(m) * ceilLg(n))
		t.Logf("%s: %d reads, bound %d, m·n %d", tc.name, reads, bound, m*n)
		if reads > bound {
			t.Errorf("%s: Build read %d entries, want <= %d·(m+n)·⌈lg m⌉·⌈lg n⌉ = %d (m·n = %d)",
				tc.name, reads, buildReadsC, bound, m*n)
		}
		checkRect(t, ix, tc.a, m/2, m/2, 0, n-1)
		checkRect(t, ix, tc.a, 0, m-1, n/2, n/2)
	}
}

// TestBytesMatchesLiveHeap checks that Index.Bytes tracks what an index
// really keeps alive: the live-heap growth across one Build, read after
// two GCs (the second clears sync.Pool victim caches) with the index
// still reachable, must be within 0.8–1.25× of Bytes.
func TestBytesMatchesLiveHeap(t *testing.T) {
	quad := func(g int) float64 { return float64(g * g) }
	for _, n := range []int{1024, 4096} {
		rng := rand.New(rand.NewSource(1))
		off := func() []float64 {
			o := make([]float64, n)
			for i := range o {
				o[i] = float64(rng.Intn(1000))
			}
			return o
		}
		a := marray.ConvexGapMonge(off(), off(), quad)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		ix := mindex.Build(a, mindex.Opts{})
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		ratio := float64(ix.Bytes()) / grown
		t.Logf("n=%d: Bytes %d, live-heap growth %.0f, ratio %.3f", n, ix.Bytes(), grown, ratio)
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("n=%d: Bytes() = %d is %.2fx the live-heap growth %.0f, want 0.8–1.25x", n, ix.Bytes(), ratio, grown)
		}
		runtime.KeepAlive(ix)
	}
}
