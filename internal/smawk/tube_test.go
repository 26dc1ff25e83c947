package smawk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monge/internal/marray"
)

func eq2D(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqInts(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestTubeMaximaMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 100; trial++ {
		p, q, r := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		c := marray.RandomComposite(rng, p, q, r)
		gotJ, gotV := TubeMaxima(c)
		wantJ, wantV := TubeMaximaBrute(c)
		if !eq2D(gotJ, wantJ) {
			t.Fatalf("trial %d (%d,%d,%d): argJ mismatch\n got %v\nwant %v", trial, p, q, r, gotJ, wantJ)
		}
		for i := range gotV {
			for k := range gotV[i] {
				if gotV[i][k] != wantV[i][k] {
					t.Fatalf("value mismatch at (%d,%d)", i, k)
				}
			}
		}
	}
}

// TestTubeMinimaMatchesBrute checks the reduction that serves tube minima
// of a composite with inverse-Monge factors: they are the tube maxima of
// the composite of the negated (Monge) factors, ties to the smallest j.
func TestTubeMinimaMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		p, q, r := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		c := marray.NewComposite(
			marray.RandomInverseMonge(rng, p, q),
			marray.RandomInverseMonge(rng, q, r),
		)
		gotJ, _ := TubeMaxima(marray.NewComposite(marray.Negate(c.D), marray.Negate(c.E)))
		wantJ := make([][]int, p)
		for i := range wantJ {
			wantJ[i] = make([]int, r)
			for k := range wantJ[i] {
				for j := 1; j < q; j++ {
					if c.At(i, j, k) < c.At(i, wantJ[i][k], k) {
						wantJ[i][k] = j
					}
				}
			}
		}
		if !eq2D(gotJ, wantJ) {
			t.Fatalf("trial %d: argJ mismatch\n got %v\nwant %v", trial, gotJ, wantJ)
		}
	}
}

func TestTubeMaximaTiesToSmallestJ(t *testing.T) {
	// Constant factors force every middle coordinate to tie; the smallest j
	// must win everywhere.
	d := marray.NewDense(3, 4) // all zeros: Monge
	e := marray.NewDense(4, 3)
	c := marray.NewComposite(d, e)
	argJ, _ := TubeMaxima(c)
	for i := range argJ {
		for k := range argJ[i] {
			if argJ[i][k] != 0 {
				t.Fatalf("tie should pick j=0, got %d at (%d,%d)", argJ[i][k], i, k)
			}
		}
	}
}

func TestQuickTubeMaxima(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q, r := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(16)
		c := marray.RandomComposite(rng, p, q, r)
		gotJ, _ := TubeMaxima(c)
		wantJ, _ := TubeMaximaBrute(c)
		return eq2D(gotJ, wantJ)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTubeArgMonotonicity(t *testing.T) {
	// Structural check exploited by the divide-and-conquer parallel
	// algorithm: for a Monge-composite array (D, E Monge) the leftmost
	// maximising j is NONINCREASING in k for fixed i and nonincreasing in i
	// for fixed k, because each slice is a Monge array and Monge row maxima
	// move left as the row index grows.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		p, q, r := 2+rng.Intn(10), 2+rng.Intn(10), 2+rng.Intn(10)
		c := marray.RandomComposite(rng, p, q, r)
		argJ, _ := TubeMaximaBrute(c)
		for i := 0; i < p; i++ {
			for k := 1; k < r; k++ {
				if argJ[i][k] > argJ[i][k-1] {
					t.Fatalf("argJ not nonincreasing in k at i=%d k=%d: %v", i, k, argJ[i])
				}
			}
		}
		for k := 0; k < r; k++ {
			for i := 1; i < p; i++ {
				if argJ[i][k] > argJ[i-1][k] {
					t.Fatalf("argJ not nonincreasing in i at i=%d k=%d", i, k)
				}
			}
		}
	}
}

// TestMongeRowMaximaEvaluations pins the orientation of the Monge
// row-maxima adapter: it searches the column reversal with the rightmost
// comparator, which reads fewer than 2·(q+r) entries per r x q tube slice.
// Reversing rows instead keeps the leftmost comparator but reads about
// twice as many (28,253 on this input) and fails the bound.
func TestMongeRowMaximaEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const p, q, r = 64, 64, 64
	c := marray.RandomComposite(rng, p, q, r)
	reads := 0
	for i := 0; i < p; i++ {
		wi := marray.Func{M: r, N: q, F: func(k, j int) float64 {
			reads++
			return c.D.At(i, j) + c.E.At(j, k)
		}}
		got, want := MongeRowMaxima(wi), RowMaximaBrute(wi)
		if !eqInts(got, want) {
			t.Fatalf("slice %d: got %v want %v", i, got, want)
		}
	}
	// RowMaximaBrute read every entry once per slice.
	reads -= p * q * r
	if bound := 2 * p * (q + r); reads > bound {
		t.Fatalf("MongeRowMaxima read %d entries over %d slices, want <= %d", reads, p, bound)
	}
	t.Logf("MongeRowMaxima read %d entries over %d slices", reads, p)
}
