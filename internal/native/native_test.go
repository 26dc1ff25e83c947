package native_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"monge/internal/core"
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
// kernel x shape x input family runs through the native backend and
// through the PRAM oracle, and any index mismatch fails. Under the CI
// fault matrix the oracle additionally runs with injected machine faults,
// so this test also proves the oracle stays usable as a conformance
// reference under recovery.
func TestNativeMatchesPRAM(t *testing.T) {
	shapes := []struct{ m, n int }{
		{1, 1}, {1, 33}, {33, 1}, {63, 63}, {64, 64}, {1024, 1024},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.m)*1000 + int64(sh.n)))
		for _, tc := range rowFamilies(rng, sh.m, sh.n) {
			t.Run(fmt.Sprintf("smawk/%dx%d/%s", sh.m, sh.n, tc.name), func(t *testing.T) {
				got := native.RowMinima(context.Background(), tc.a)
				want := core.RowMinima(pram.New(pram.CRCW, sh.n), tc.a)
				if i := diffIdx(got, want); i >= 0 {
					t.Fatalf("row %d: native %d, PRAM %d", i, got[i], want[i])
				}
			})
		}
		for _, tc := range stairFamilies(rng, sh.m, sh.n) {
			t.Run(fmt.Sprintf("staircase/%dx%d/%s", sh.m, sh.n, tc.name), func(t *testing.T) {
				got := native.StaircaseRowMinima(context.Background(), tc.a)
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
			gotJ, gotV := native.TubeMaxima(context.Background(), c)
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
	cases := []struct {
		name string
		f    func()
	}{
		{"rows-0xN", func() { native.RowMinima(nil, marray.NewDense(0, 5)) }},
		{"rows-Mx0", func() { native.RowMinima(nil, marray.NewDense(5, 0)) }},
		{"stair-0xN", func() { native.StaircaseRowMinima(nil, marray.NewDense(0, 5)) }},
		{"stair-Mx0", func() { native.StaircaseRowMinima(nil, marray.NewDense(5, 0)) }},
		{"tube-p0", func() {
			native.TubeMaxima(nil, marray.Composite{D: marray.NewDense(0, 3), E: marray.NewDense(3, 4)})
		}},
		{"tube-r0", func() {
			native.TubeMaxima(nil, marray.Composite{D: marray.NewDense(2, 3), E: marray.NewDense(3, 0)})
		}},
	}
	for _, tc := range cases {
		if err := catch(tc.f); !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Errorf("%s: err = %v, want ErrDimensionMismatch", tc.name, err)
		}
	}
}

// TestNativeCancellation checks the per-query context check on every
// kernel: a done context throws merr.ErrCanceled before any entry is
// read.
func TestNativeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(9))
	small := marray.RandomMonge(rng, 8, 8)
	for name, f := range map[string]func(){
		"serial": func() { native.RowMinima(ctx, small) },
		"stair":  func() { native.StaircaseRowMinima(ctx, marray.RandomStaircaseMonge(rng, 1024, 64)) },
		"tube":   func() { native.TubeMaxima(ctx, marray.RandomComposite(rng, 48, 8, 8)) },
	} {
		if err := catch(f); !errors.Is(err, merr.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
	}
}

// TestNativeObsCounters checks every kernel counts one search per
// query on the observer's "native" site.
func TestNativeObsCounters(t *testing.T) {
	prev := obs.Global()
	o := obs.NewObserver()
	obs.SetGlobal(o)
	defer obs.SetGlobal(prev)

	rng := rand.New(rand.NewSource(3))
	native.RowMinima(nil, marray.RandomMonge(rng, 1024, 32))
	native.StaircaseRowMinima(nil, marray.RandomStaircaseMonge(rng, 64, 64))
	native.TubeMaxima(nil, marray.RandomComposite(rng, 8, 8, 8))
	if got := o.Site("native").Load(obs.Searches); got != 3 {
		t.Fatalf("Searches = %d after three queries, want 3", got)
	}
}

// countingMatrix counts the entries a kernel reads (atomically, so a
// kernel that reads from several goroutines is counted exactly too).
// It hides any Staircase boundary of the wrapped array, so a staircase
// solver pays for its boundary searches in reads as well.
type countingMatrix struct {
	marray.Matrix
	reads *atomic.Int64
}

func (c countingMatrix) At(i, j int) float64 {
	c.reads.Add(1)
	return c.Matrix.At(i, j)
}

// convexGap returns a seeded implicit n x n Monge array
// a[i,j] = r[i] + c[j] + (j-i)²: the gap penalty puts every row's
// minimum near the diagonal, SMAWK's hardest case, where REDUCE can
// discard few columns.
func convexGap(rng *rand.Rand, n int) marray.Matrix {
	r := make([]float64, n)
	c := make([]float64, n)
	for i := range r {
		r[i], c[i] = rng.Float64()*float64(n), rng.Float64()*float64(n)
	}
	return marray.ConvexGapMonge(r, c, func(g int) float64 { return float64(g) * float64(g) })
}

// bilinear returns a seeded implicit n x n Monge array
// a[i,j] = r[i] + c[j] - 5(i+1)(j+1) with offsets in [-100, 100): the
// expected value of marray.RandomMonge's cumulative-sum construction,
// whose minima gather in the last columns, without its dense n² table.
func bilinear(rng *rand.Rand, n int) marray.Matrix {
	r := make([]float64, n)
	c := make([]float64, n)
	for i := range r {
		r[i], c[i] = rng.Float64()*200-100, rng.Float64()*200-100
	}
	return marray.Func{M: n, N: n, F: func(i, j int) float64 {
		return r[i] + c[j] - 5*float64(i+1)*float64(j+1)
	}}
}

// TestNativeReadBound pins the native kernels to the sequential
// solvers' read counts on 4096² implicit inputs. Row minima reads
// exactly what smawk.RowMinima reads: at most 3·(m+n) entries on the
// RandomMonge-shaped input and 6·(m+n) on the convex-gap one, whose
// diagonal minima cost SMAWK about 5·(m+n). Staircase row minima reads
// no more than smawk.StaircaseRowMinima. A kernel that re-ran SMAWK on
// every 16-row block over all n columns would read about 2·m·n²/2^16
// entries, some 2 M here.
func TestNativeReadBound(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	gap := convexGap(rng, n)
	for _, tc := range []struct {
		name string
		a    marray.Matrix
		c    int64
	}{
		{"bilinear", bilinear(rng, n), 3},
		{"convex-gap", gap, 6},
	} {
		var nat, seq atomic.Int64
		got := native.RowMinima(nil, countingMatrix{tc.a, &nat})
		want := smawk.RowMinima(countingMatrix{tc.a, &seq})
		if bound := tc.c * (n + n); nat.Load() > bound || nat.Load() > seq.Load() {
			t.Errorf("%s: native RowMinima read %d entries of a %dx%d array; smawk.RowMinima reads %d, bound %d(m+n) = %d",
				tc.name, nat.Load(), n, n, seq.Load(), tc.c, bound)
		}
		if i := diffIdx(got, want); i >= 0 {
			t.Fatalf("%s: native RowMinima differs from smawk at row %d", tc.name, i)
		}
		t.Logf("%s: row minima reads %d = %.2f(m+n)", tc.name, nat.Load(), float64(nat.Load())/(2*n))
	}

	bounds := marray.RandomStaircaseBoundary(rng, n, n)
	stair := marray.StairFunc{M: n, N: n, F: gap.At, Bound: func(i int) int { return bounds[i] }}
	var nat, seq atomic.Int64
	got := native.StaircaseRowMinima(nil, countingMatrix{stair, &nat})
	want := smawk.StaircaseRowMinima(countingMatrix{stair, &seq})
	if nat.Load() > seq.Load() {
		t.Errorf("native StaircaseRowMinima read %d entries, smawk.StaircaseRowMinima %d", nat.Load(), seq.Load())
	}
	if i := diffIdx(got, want); i >= 0 {
		t.Fatalf("native StaircaseRowMinima differs from smawk at row %d", i)
	}
	t.Logf("staircase reads: native %d, sequential %d", nat.Load(), seq.Load())
}
