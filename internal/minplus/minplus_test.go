package minplus

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"monge/internal/batch"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/pram"
)

// backends enumerates both execution engines; every differential test
// runs on each.
var backends = []struct {
	name string
	be   batch.Backend
}{
	{"pram", batch.BackendPRAM},
	{"native", batch.BackendNative},
}

// mulPair holds one test instance: both factors Monge (possibly
// staircase-Monge, or DAG-triangular).
type mulPair struct {
	name       string
	a, b       marray.Matrix
	triangular bool // multiply as the M-link solver does: windows over +Inf
}

// mul multiplies the pair on e, triangular pairs through the M-link
// solver's entry point.
func (tc mulPair) mul(e *Engine) *Product {
	if tc.triangular {
		return e.multiply(tc.a, tc.b, false)
	}
	return e.Multiply(tc.a, tc.b)
}

// testPairs builds the factor families the multiplication suite runs:
// dense and implicit Monge, tie-rich integer Monge, staircase on
// either or both sides, inf-heavy staircases, huge-aspect shapes, and
// DAG-triangular pairs: an M-link link matrix times itself, then its
// ⊗-square (a Product) times itself, whose last rows are blocked
// entirely (witness -1), and a wide triangular factor times a shifted
// one, where a row's lower neighbour is blocked in a column in which
// the row itself is not, so a window opens on a -1 bound.
func testPairs(rng *rand.Rand) []mulPair {
	fn := func(d *marray.Dense) marray.Matrix {
		return marray.Func{M: d.Rows(), N: d.Cols(), F: d.At}
	}
	stairA := marray.RandomStaircaseMongeInt(rng, 20, 16, 3)
	infHeavy := marray.RandomInfHeavyStaircase(rng, 24, 18)
	pairs := []mulPair{
		{name: "dense-square", a: marray.RandomMonge(rng, 24, 24), b: marray.RandomMonge(rng, 24, 24)},
		{name: "dense-rect", a: marray.RandomMonge(rng, 17, 29), b: marray.RandomMonge(rng, 29, 11)},
		{name: "int-ties", a: marray.RandomMongeInt(rng, 23, 23, 2), b: marray.RandomMongeInt(rng, 23, 23, 2)},
		{name: "near-tie", a: marray.RandomNearTieMonge(rng, 19, 21), b: marray.RandomNearTieMonge(rng, 21, 15)},
		{name: "func-backed", a: fn(marray.RandomMonge(rng, 16, 20)), b: fn(marray.RandomMonge(rng, 20, 16))},
		{name: "stair-second", a: marray.RandomMongeInt(rng, 18, 22, 3), b: marray.RandomStaircaseMongeInt(rng, 22, 17, 3)},
		{name: "stair-first", a: stairA, b: marray.RandomMongeInt(rng, 16, 19, 3)},
		{name: "stair-both", a: marray.RandomStaircaseMongeInt(rng, 15, 18, 2), b: marray.RandomStaircaseMongeInt(rng, 18, 14, 2)},
		{name: "inf-heavy", a: marray.RandomMongeInt(rng, 12, 24, 2), b: infHeavy},
		{name: "row-vector", a: marray.RandomMonge(rng, 1, 33), b: marray.RandomMonge(rng, 33, 27)},
		{name: "col-vector", a: marray.RandomMonge(rng, 31, 29), b: marray.RandomMonge(rng, 29, 1)},
		{name: "inner-one", a: marray.RandomMonge(rng, 13, 1), b: marray.RandomMonge(rng, 1, 13)},
	}
	link := linkMatrix(40, mongeWeight(rng, 40))
	sq := New(batch.BackendNative)
	defer sq.Close()
	link2 := sq.multiply(link, link, false)
	return append(pairs,
		mulPair{name: "link-square", a: link, b: link, triangular: true},
		mulPair{name: "link-fourth", a: link2, b: link2, triangular: true},
		mulPair{name: "link-shifted", a: bandMonge(rng, 24, 120, 0), b: bandMonge(rng, 120, 30, -12), triangular: true})
}

// bandMonge masks a random integer Monge array to the +Inf pattern of a
// shifted DAG matrix: entry (i, j) is finite exactly where j-i >= s.
// The blocked region is closed to the left and downward, which keeps
// the array Monge with +Inf read as larger than every sum.
func bandMonge(rng *rand.Rand, m, n, s int) marray.Matrix {
	d := marray.RandomMongeInt(rng, m, n, 3)
	return marray.Func{M: m, N: n, F: func(i, j int) float64 {
		if j-i >= s {
			return d.At(i, j)
		}
		return inf
	}}
}

// checkAgainstNaive asserts value- and witness-exactness of a Product
// against the naive oracle.
func checkAgainstNaive(t *testing.T, p *Product, a, b marray.Matrix) {
	t.Helper()
	want, wit := MultiplyNaive(a, b)
	if p.Rows() != want.Rows() || p.Cols() != want.Cols() {
		t.Fatalf("product is %dx%d, want %dx%d", p.Rows(), p.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < p.Rows(); i++ {
		for k := 0; k < p.Cols(); k++ {
			gv, wv := p.At(i, k), want.At(i, k)
			if gv != wv && !(math.IsInf(gv, 1) && math.IsInf(wv, 1)) {
				t.Fatalf("C[%d][%d] = %g, naive %g", i, k, gv, wv)
			}
			if gj, wj := p.Witness(i, k), wit[i][k]; gj != wj {
				t.Fatalf("witness[%d][%d] = %d, naive %d (value %g)", i, k, gj, wj, wv)
			}
		}
	}
}

// TestMultiplyMatchesNaive is the core differential: every factor
// family, both backends, value- and witness-exact against the oracle.
func TestMultiplyMatchesNaive(t *testing.T) {
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			e := New(bk.be)
			defer e.Close()
			rng := rand.New(rand.NewSource(61))
			for _, tc := range testPairs(rng) {
				t.Run(tc.name, func(t *testing.T) {
					checkAgainstNaive(t, tc.mul(e), tc.a, tc.b)
				})
			}
		})
	}
}

// TestProductAsFactor pins product chaining: a run-sparse Product is
// itself a valid Monge factor, and chained engine products agree with
// chained naive products entry for entry. Integer factors keep float
// addition association irrelevant.
func TestProductAsFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := marray.RandomMongeInt(rng, 20, 20, 3)
	b := marray.RandomMongeInt(rng, 20, 20, 3)
	c := marray.RandomMongeInt(rng, 20, 20, 3)
	e := New(batch.BackendNative)
	defer e.Close()

	ab := e.Multiply(a, b)
	abc := e.Multiply(ab, c)
	nAB, _ := MultiplyNaive(a, b)
	checkAgainstNaive(t, abc, nAB, c)

	// Core sparsity: the run representation must undercut the dense
	// m*r footprint on random Monge inputs.
	if ab.Runs() >= ab.Rows()*ab.Cols() {
		t.Errorf("A⊗B carries %d runs, no sparser than dense %d", ab.Runs(), ab.Rows()*ab.Cols())
	}
	// Dense materialization round-trips.
	d := abc.Dense()
	for i := 0; i < d.Rows(); i++ {
		for k := 0; k < d.Cols(); k++ {
			if d.At(i, k) != abc.At(i, k) {
				t.Fatalf("Dense()[%d][%d] = %g, product says %g", i, k, d.At(i, k), abc.At(i, k))
			}
		}
	}

	// The M-link chain: D⊗D and (D⊗D)⊗(D⊗D) on a DAG-triangular link
	// matrix, whose last rows are blocked entirely (witness -1).
	link := linkMatrix(60, mongeWeight(rng, 60))
	l2 := e.multiply(link, link, false)
	checkAgainstNaive(t, l2, link, link)
	nL2, _ := MultiplyNaive(link, link)
	checkAgainstNaive(t, e.multiply(l2, l2, false), nL2, nL2)
	for _, i := range []int{59, 60} {
		if l2.rowStart[i+1]-l2.rowStart[i] != 1 || l2.Witness(i, 0) != -1 {
			t.Fatalf("row %d of D⊗D is not one blocked run", i)
		}
	}
}

// TestMultiplyErrors pins the typed error contract of the engine seam.
func TestMultiplyErrors(t *testing.T) {
	e := New(batch.BackendNative)
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	tryMul := func(a, b marray.Matrix) (err error) {
		defer merr.Catch(&err)
		e.Multiply(a, b)
		return nil
	}
	if err := tryMul(marray.RandomMonge(rng, 4, 5), marray.RandomMonge(rng, 4, 5)); !errors.Is(err, merr.ErrDimensionMismatch) {
		t.Fatalf("inner mismatch: err=%v, want ErrDimensionMismatch", err)
	}
	if err := tryMul(marray.NewDense(0, 0), marray.NewDense(0, 4)); !errors.Is(err, merr.ErrDimensionMismatch) {
		t.Fatalf("empty factor: err=%v, want ErrDimensionMismatch", err)
	}
	p := e.Multiply(marray.RandomMonge(rng, 4, 4), marray.RandomMonge(rng, 4, 4))
	tryWit := func(i, k int) (err error) {
		defer merr.Catch(&err)
		p.Witness(i, k)
		return nil
	}
	if err := tryWit(4, 0); !errors.Is(err, merr.ErrDimensionMismatch) {
		t.Fatalf("row overflow: err=%v, want ErrDimensionMismatch", err)
	}
	if err := tryWit(0, -1); !errors.Is(err, merr.ErrDimensionMismatch) {
		t.Fatalf("negative col: err=%v, want ErrDimensionMismatch", err)
	}
}

// TestIntoSliceTooShort pins the driver-level answer-slice check both
// Into methods gained for the engine.
func TestIntoSliceTooShort(t *testing.T) {
	for _, bk := range backends {
		d := batch.NewWithBackend(pram.CRCW, bk.be)
		a := marray.RandomMonge(rand.New(rand.NewSource(1)), 8, 8)
		try := func(f func()) (err error) {
			defer merr.Catch(&err)
			f()
			return nil
		}
		short := make([]int, 4)
		if err := try(func() { d.RowMinimaInto(a, short) }); !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Fatalf("%s RowMinimaInto short: err=%v, want ErrDimensionMismatch", bk.name, err)
		}
		if err := try(func() { d.StaircaseRowMinimaInto(a, short) }); !errors.Is(err, merr.ErrDimensionMismatch) {
			t.Fatalf("%s StaircaseRowMinimaInto short: err=%v, want ErrDimensionMismatch", bk.name, err)
		}
		d.Close()
	}
}

// TestMultiplyEvaluationsBeatNaive pins the engine's algorithmic claim
// in entry evaluations, which no runner's load can perturb: on a seeded
// 8x1024 by 1024x1024 product, B's entries read times
// minEngineOverNaive is at most the m·q·r the naive product reads, on
// both backends. B is an implicit Func and the shape keeps it off the
// transposed copy, so every read is one of the row queries' own.
func TestMultiplyEvaluationsBeatNaive(t *testing.T) {
	const (
		m, q, r            = 8, 1024, 1024
		minEngineOverNaive = 20
	)
	if transposePays(m, q, r) {
		t.Fatalf("%dx%dx%d reads B through a transposed copy; the count would measure the copy", m, q, r)
	}
	rng := rand.New(rand.NewSource(1))
	a := marray.RandomMonge(rng, m, q)
	d := marray.RandomMonge(rng, q, r)
	var evals atomic.Int64
	b := marray.Func{M: q, N: r, F: func(j, k int) float64 { evals.Add(1); return d.At(j, k) }}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			e := New(bk.be)
			defer e.Close()
			evals.Store(0)
			p := e.Multiply(a, b)
			got := evals.Load()
			checkAgainstNaive(t, p, a, d)
			t.Logf("%d evaluations of B against %d naive (%.0fx)", got, m*q*r, float64(m*q*r)/float64(got))
			if got*minEngineOverNaive > m*q*r {
				t.Fatalf("%d evaluations of B x %d > %d of the naive product", got, minEngineOverNaive, m*q*r)
			}
		})
	}
}
