package native_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"monge/internal/core"
	"monge/internal/exec"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/native"
	"monge/internal/obs"
	"monge/internal/pram"
	"monge/internal/smawk"
)

// catch runs f and returns the typed condition it threw, if any.
func catch(f func()) (err error) {
	defer merr.Catch(&err)
	f()
	return nil
}

// diffIdx returns the first index where two answer vectors differ, or -1.
func diffIdx(a, b []int) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// infHeavy imposes an aggressive nonincreasing boundary on a Monge array:
// most of the area is blocked and the later rows are blocked entirely, so
// the -1 answers and the tie-breaking at the staircase edge both get
// exercised. Imposing any nonincreasing boundary on a Monge array yields a
// staircase-Monge array (the Monge inequality is only required on fully
// finite minors).
func infHeavy(d *marray.Dense, m, n int) marray.StairFunc {
	return marray.StairFunc{M: m, N: n, F: d.At, Bound: func(i int) int {
		b := n/4 - i
		if b < 0 {
			b = 0
		}
		return b
	}}
}

// rowCase is one (matrix family) x (expected-equal oracle) input for the
// row-minima differential tests.
type rowCase struct {
	name string
	a    marray.Matrix
}

func rowFamilies(rng *rand.Rand, m, n int) []rowCase {
	dense := marray.RandomMonge(rng, m, n)
	ties := marray.RandomMongeInt(rng, m, n, 2)
	nearTie := marray.RandomNearTieMonge(rng, m, n)
	return []rowCase{
		{"dense", dense},
		{"func", marray.Func{M: m, N: n, F: dense.At}},
		{"ties", ties},
		{"all-ties", marray.Func{M: m, N: n, F: func(int, int) float64 { return 7 }}},
		// Ties split at the 2^-30 (~1e-9) scale: exact comparison and exact
		// leftmost tie-breaking are the only way through. Run dense so
		// the branchless scan kernels face it, and Func-backed so the
		// generic At path faces the identical input.
		{"near-tie", nearTie},
		{"near-tie-func", marray.Func{M: m, N: n, F: nearTie.At}},
		// All-ties again, but every entry in an odd column is -0.0:
		// IEEE order makes -0.0 == +0.0, so the leftmost rule must pick
		// column 0 everywhere — a kernel whose key map distinguishes the
		// zero signs answers an odd column instead.
		{"signed-zeros", marray.Func{M: m, N: n, F: func(_, j int) float64 {
			if j%2 == 1 {
				return math.Copysign(0, -1)
			}
			return 0
		}}},
	}
}

func stairFamilies(rng *rand.Rand, m, n int) []rowCase {
	dense := marray.RandomStaircaseMonge(rng, m, n)
	heavy := infHeavy(marray.RandomMonge(rng, m, n), m, n)
	infRand := marray.RandomInfHeavyStaircase(rng, m, n)
	return []rowCase{
		{"dense", dense},
		{"func", marray.Func{M: m, N: n, F: dense.At}},
		{"inf-heavy", heavy},
		{"inf-heavy-dense", marray.Materialize(heavy)},
		{"ties", marray.RandomStaircaseMongeInt(rng, m, n, 2)},
		// The generator variant of the inf-heavy family: tie-dense
		// finite core under a falling boundary, plus its materialized
		// +Inf-dense form so the scan kernels see literal +Inf runs.
		{"inf-heavy-rand", infRand},
		{"inf-heavy-rand-dense", marray.Materialize(infRand)},
	}
}

// TestNativeMatchesPRAM is the differential conformance table: every
// kernel x shape x input family runs through the native backend (on a
// 4-worker pool, so the block fan-out engages even on one CPU) and
// through the PRAM oracle, and any index mismatch fails. Under the CI
// fault matrix the oracle additionally runs with injected machine faults,
// so this test also proves the oracle stays usable as a conformance
// reference under recovery.
func TestNativeMatchesPRAM(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	shapes := []struct{ m, n int }{
		{1, 1}, {1, 33}, {33, 1}, {63, 63}, {64, 64}, {1024, 1024},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.m)*1000 + int64(sh.n)))
		for _, tc := range rowFamilies(rng, sh.m, sh.n) {
			t.Run(fmt.Sprintf("smawk/%dx%d/%s", sh.m, sh.n, tc.name), func(t *testing.T) {
				got := native.RowMinima(context.Background(), pool, tc.a)
				want := core.RowMinima(pram.New(pram.CRCW, sh.n), tc.a)
				if i := diffIdx(got, want); i >= 0 {
					t.Fatalf("row %d: native %d, PRAM %d", i, got[i], want[i])
				}
			})
		}
		for _, tc := range stairFamilies(rng, sh.m, sh.n) {
			t.Run(fmt.Sprintf("staircase/%dx%d/%s", sh.m, sh.n, tc.name), func(t *testing.T) {
				got := native.StaircaseRowMinima(context.Background(), pool, tc.a)
				want := core.StaircaseRowMinima(pram.New(pram.CRCW, sh.n), tc.a)
				if i := diffIdx(got, want); i >= 0 {
					t.Fatalf("row %d: native %d, PRAM %d", i, got[i], want[i])
				}
			})
		}
	}

	tubeShapes := []struct{ p, q, r int }{
		{1, 1, 1}, {1, 17, 5}, {33, 5, 1}, {24, 24, 24}, {48, 16, 8},
	}
	for _, sh := range tubeShapes {
		rng := rand.New(rand.NewSource(int64(sh.p)*100 + int64(sh.q)*10 + int64(sh.r)))
		c := marray.RandomComposite(rng, sh.p, sh.q, sh.r)
		t.Run(fmt.Sprintf("tube/%dx%dx%d", sh.p, sh.q, sh.r), func(t *testing.T) {
			gotJ, gotV := native.TubeMaxima(context.Background(), pool, c)
			wantJ, wantV := core.TubeMaxima(pram.New(pram.CRCW, 2*sh.q*sh.r), c)
			for i := range wantJ {
				for k := range wantJ[i] {
					if gotJ[i][k] != wantJ[i][k] || gotV[i][k] != wantV[i][k] {
						t.Fatalf("tube (%d,%d): native (%d,%g), PRAM (%d,%g)",
							i, k, gotJ[i][k], gotV[i][k], wantJ[i][k], wantV[i][k])
					}
				}
			}
		})
	}
}

// TestNativeDegenerateShapes pins the typed error for m=0 / n=0 inputs:
// the kernels throw merr.ErrDimensionMismatch instead of returning
// backend-dependent silent answers.
func TestNativeDegenerateShapes(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	cases := []struct {
		name string
		f    func()
	}{
		{"rows-0xN", func() { native.RowMinima(nil, pool, marray.NewDense(0, 5)) }},
		{"rows-Mx0", func() { native.RowMinima(nil, pool, marray.NewDense(5, 0)) }},
		{"stair-0xN", func() { native.StaircaseRowMinima(nil, pool, marray.NewDense(0, 5)) }},
		{"stair-Mx0", func() { native.StaircaseRowMinima(nil, pool, marray.NewDense(5, 0)) }},
		{"tube-p0", func() {
			native.TubeMaxima(nil, pool, marray.Composite{D: marray.NewDense(0, 3), E: marray.NewDense(3, 4)})
		}},
		{"tube-r0", func() {
			native.TubeMaxima(nil, pool, marray.Composite{D: marray.NewDense(2, 3), E: marray.NewDense(3, 0)})
		}},
	}
	for _, tc := range cases {
		if err := catch(tc.f); !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Errorf("%s: err = %v, want ErrDimensionMismatch", tc.name, err)
		}
	}
}

// TestNativeCancellation covers both cancellation sites: the entry check
// on the serial path and the between-blocks poll on the fan-out path.
func TestNativeCancellation(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(9))
	small := marray.RandomMonge(rng, 8, 8)
	big := marray.RandomMonge(rng, 1024, 64)
	for name, f := range map[string]func(){
		"serial":  func() { native.RowMinima(ctx, pool, small) },
		"fan-out": func() { native.RowMinima(ctx, pool, big) },
		"stair":   func() { native.StaircaseRowMinima(ctx, pool, marray.RandomStaircaseMonge(rng, 1024, 64)) },
		"tube":    func() { native.TubeMaxima(ctx, pool, marray.RandomComposite(rng, 48, 8, 8)) },
	} {
		if err := catch(f); !errors.Is(err, merr.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
	}
}

// TestNativeObsCounters checks the kernels land their dispatch counters
// on the observer's "native" site.
func TestNativeObsCounters(t *testing.T) {
	prev := obs.Global()
	o := obs.NewObserver()
	obs.SetGlobal(o)
	defer obs.SetGlobal(prev)

	pool := exec.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(3))
	native.RowMinima(nil, pool, marray.RandomMonge(rng, 1024, 32))
	c := o.Site("native")
	if c.Load(obs.Searches) != 1 {
		t.Fatalf("Searches = %d, want 1", c.Load(obs.Searches))
	}
	if c.Load(obs.PoolLoops) != 1 || c.Load(obs.PoolChunks) < 2 {
		t.Fatalf("PoolLoops = %d, PoolChunks = %d; want one fan-out loop of several chunks",
			c.Load(obs.PoolLoops), c.Load(obs.PoolChunks))
	}
}

// TestNativeHugeAspectChunks is the regression test for the
// huge-aspect serialization bug: before the merge-path area split, a
// 1xn query had a single row block and therefore one chunk no matter
// how wide the row, so every worker but one sat idle. The area split
// must produce at least W chunks whenever the area permits, on both
// the flat (1xn) and the tall (nx1) extreme, and the answers must stay
// index-exact with the sequential solver.
func TestNativeHugeAspectChunks(t *testing.T) {
	prev := obs.Global()
	o := obs.NewObserver()
	obs.SetGlobal(o)
	defer obs.SetGlobal(prev)

	const workers = 4
	pool := exec.NewPool(workers)
	defer pool.Close()
	rng := rand.New(rand.NewSource(9))

	flat := marray.RandomMonge(rng, 1, 1<<16)
	got := native.RowMinima(nil, pool, flat)
	want := smawk.RowMinima(flat)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flat row %d: native %d, smawk %d", i, got[i], want[i])
		}
	}
	c := o.Site("native")
	if c.Load(obs.PoolChunks) < workers {
		t.Fatalf("1x%d query ran as %d chunks; want >= %d so no worker idles",
			flat.Cols(), c.Load(obs.PoolChunks), workers)
	}

	chunksBefore := c.Load(obs.PoolChunks)
	tall := marray.RandomMonge(rng, 1<<16, 1)
	got = native.RowMinima(nil, pool, tall)
	want = smawk.RowMinima(tall)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tall row %d: native %d, smawk %d", i, got[i], want[i])
		}
	}
	if delta := c.Load(obs.PoolChunks) - chunksBefore; delta < workers {
		t.Fatalf("%dx1 query ran as %d chunks; want >= %d", tall.Rows(), delta, workers)
	}
}

// TestNativeColumnSplitExact pins the column-segment combine against
// the sequential solvers on flat shapes that exercise every arm:
// dense, Func-backed (the generic At loop), and staircase with blocked
// tails (including fully blocked rows), at widths that do and do not
// divide evenly into segments.
func TestNativeColumnSplitExact(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(10))

	for _, shape := range [][2]int{{1, 1 << 14}, {2, 12289}, {3, 4099}, {5, 2048}} {
		m, n := shape[0], shape[1]
		d := marray.RandomMonge(rng, m, n)
		got := native.RowMinima(nil, pool, d)
		want := smawk.RowMinima(d)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dense %dx%d row %d: native %d, smawk %d", m, n, i, got[i], want[i])
			}
		}
		f := marray.Func{M: m, N: n, F: d.At}
		got = native.RowMinima(nil, pool, f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("func %dx%d row %d: native %d, smawk %d", m, n, i, got[i], want[i])
			}
		}
		st := marray.RandomStaircaseMonge(rng, m, n)
		gotS := native.StaircaseRowMinima(nil, pool, st)
		wantS := smawk.StaircaseRowMinima(st)
		for i := range wantS {
			if gotS[i] != wantS[i] {
				t.Fatalf("stair %dx%d row %d: native %d, smawk %d", m, n, i, gotS[i], wantS[i])
			}
		}
	}
}
