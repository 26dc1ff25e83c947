package minplus

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"monge/internal/marray"
	"monge/internal/obs"
	"monge/internal/smawk"
)

// convexGapFactor is an implicit m x n Monge array r[i] + c[j] + g²/16
// with offsets spread over [0, n): the factor family perfbench
// multiplies, whose products hold several witness runs per row.
func convexGapFactor(rng *rand.Rand, m, n int) marray.Matrix {
	off := func(k int) []float64 {
		o := make([]float64, k)
		for i := range o {
			o[i] = rng.Float64() * float64(n)
		}
		return o
	}
	return marray.ConvexGapMonge(off(m), off(n), func(g int) float64 { return float64(g*g) / 16 })
}

// windowInputs are the factors of the window read-count tests: a
// seeded 64x1024 convex-gap A, the wide A[i][j] = -i·j whose witnesses
// sweep the inner range from row to row, and a 1024x1024 convex-gap B
// read through a counting Func (d is its dense copy, for the oracle).
type windowInputs struct {
	gap, wide marray.Matrix
	d         *marray.Dense
	b         marray.Func
	evals     *atomic.Int64
}

func newWindowInputs(t *testing.T) windowInputs {
	t.Helper()
	const m, q, r = 64, 1024, 1024
	if transposePays(m, q, r) {
		t.Fatalf("%dx%dx%d reads B through a transposed copy; the count would measure the copy", m, q, r)
	}
	rng := rand.New(rand.NewSource(1))
	in := windowInputs{
		gap:   marray.Materialize(convexGapFactor(rng, m, q)),
		wide:  marray.Func{M: m, N: q, F: func(i, j int) float64 { return -float64(i * j) }},
		d:     marray.Materialize(convexGapFactor(rng, q, r)),
		evals: new(atomic.Int64),
	}
	in.b = marray.Func{M: q, N: r, F: func(j, k int) float64 { in.evals.Add(1); return in.d.At(j, k) }}
	return in
}

// perRowSMAWKReads is the reference count: the B entries one
// smawk.RowMinimaInto per output row reads on the engine's own slices.
func (in windowInputs) perRowSMAWKReads(a marray.Matrix) int64 {
	w := &slice{arow: make([]float64, a.Cols()), b: in.b}
	out := make([]int, in.b.Cols())
	in.evals.Store(0)
	for i := 0; i < a.Rows(); i++ {
		for j := range w.arow {
			w.arow[j] = a.At(i, j)
		}
		smawk.RowMinimaInto(w, out)
	}
	return in.evals.Load()
}

// TestMultiplyWindowEvaluations pins the witness windows' saving in
// entry evaluations, which no runner's load can perturb. On the
// convex-gap product the native engine reads at most half the B entries
// that one SMAWK query per output row reads; on the wide product the
// guard sends the rows whose windows would span the inner range to the
// kernel, and the engine reads at most what per-row SMAWK reads. Both
// hold at driver widths 1 and 4, and the witnesses match a leftmost
// scan. The engine is called as the M-link solver calls it, so the
// count leaves out Multiply's O(q) staircase probe of B's last column.
func TestMultiplyWindowEvaluations(t *testing.T) {
	in := newWindowInputs(t)
	for _, tc := range []struct {
		name     string
		a        marray.Matrix
		num, den int64 // engine reads <= num/den of per-row SMAWK's
	}{
		{"convex-gap", in.gap, 1, 2},
		{"wide", in.wide, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := in.perRowSMAWKReads(tc.a)
			var first *Product
			for _, width := range []int{1, 4} {
				e := nativeEngine(width)
				in.evals.Store(0)
				p := e.multiply(tc.a, in.b, false)
				got := in.evals.Load()
				e.Driver().Close()
				t.Logf("width %d: %d evaluations of B against %d for per-row SMAWK (%.2fx fewer)",
					width, got, ref, float64(ref)/float64(got))
				if got*tc.den > ref*tc.num {
					t.Fatalf("width %d: %d evaluations of B > %d/%d of per-row SMAWK's %d", width, got, tc.num, tc.den, ref)
				}
				if first == nil {
					checkRowsAgainstScan(t, p, tc.a, in.d, 8)
					first = p
				} else if !slices.Equal(p.runK, first.runK) || !slices.Equal(p.runJ, first.runJ) {
					t.Fatalf("width %d: runs differ from width 1", width)
				}
			}
		})
	}
}

// checkRowsAgainstScan compares the witnesses of every stride-th row of
// p with a leftmost scan of the row (the naive oracle's rule), for
// products too large for the full oracle.
func checkRowsAgainstScan(t *testing.T, p *Product, a, b marray.Matrix, stride int) {
	t.Helper()
	for i := 0; i < p.Rows(); i += stride {
		for k := 0; k < p.Cols(); k++ {
			best, bj := inf, -1
			for j := 0; j < a.Cols(); j++ {
				if v := a.At(i, j) + b.At(j, k); v < best {
					best, bj = v, j
				}
			}
			if got := p.Witness(i, k); got != bj {
				t.Fatalf("witness[%d][%d] = %d, leftmost scan %d", i, k, got, bj)
			}
		}
	}
}

// TestMultiplyCounters pins the "minplus" obs site: a product under an
// observer reports as minplus_window_reads exactly the B evaluations
// the counting factor saw, as minplus_runs the product's runs, and as
// minplus_anchor_rows at least the anchor rows and fewer than all rows.
func TestMultiplyCounters(t *testing.T) {
	in := newWindowInputs(t)
	e := nativeEngine(1)
	defer e.Driver().Close()
	o := obs.NewObserver()
	old := obs.Global()
	obs.SetGlobal(o)
	defer obs.SetGlobal(old)

	in.evals.Store(0)
	p := e.multiply(in.gap, in.b, false)
	c := o.Site("minplus")
	reads, runs, anchors := c.Load(obs.MinplusWindowReads), c.Load(obs.MinplusRuns), c.Load(obs.MinplusAnchorRows)
	t.Logf("%d window reads, %d runs, %d kernel rows of %d", reads, runs, anchors, p.Rows())
	if want := in.evals.Load(); reads != want {
		t.Errorf("minplus_window_reads = %d, the factor counted %d evaluations", reads, want)
	}
	if want := int64(p.Runs()); runs != want {
		t.Errorf("minplus_runs = %d, the product holds %d", runs, want)
	}
	pool, _ := e.Driver().Fanout()
	if nb := int64(rowBlocks(pool, p.Rows())); anchors < nb+1 || anchors >= int64(p.Rows()) {
		t.Errorf("minplus_anchor_rows = %d, want in [%d, %d)", anchors, nb+1, p.Rows())
	}
}
