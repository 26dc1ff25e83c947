package smawk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monge/internal/marray"
)

// intMonge returns a random integer-valued Monge array; integer entries
// force ties, exercising the leftmost tie-breaking rule.
func intMonge(rng *rand.Rand, m, n int) *marray.Dense {
	d := marray.NewDense(m, n)
	prefix := make([]float64, n)
	for i := 0; i < m; i++ {
		acc := 0.0
		for j := 0; j < n; j++ {
			acc -= float64(rng.Intn(3)) // small integers => frequent ties
			prefix[j] += acc
			d.Set(i, j, prefix[j]+float64(rng.Intn(2)))
		}
	}
	// NOTE: the +rng.Intn(2) noise can break Monge-ness, so fix it by
	// rebuilding without noise when the check fails.
	if !marray.IsMonge(d) {
		d = marray.NewDense(m, n)
		for j := range prefix {
			prefix[j] = 0
		}
		for i := 0; i < m; i++ {
			acc := 0.0
			for j := 0; j < n; j++ {
				acc -= float64(rng.Intn(3))
				prefix[j] += acc
				d.Set(i, j, prefix[j])
			}
		}
	}
	return d
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRowMinimaSmall(t *testing.T) {
	a := marray.FromRows([][]float64{
		{4, 5, 6},
		{3, 3, 4},
		{2, 1, 1},
	})
	if !marray.IsMonge(a) {
		t.Fatal("test array should be Monge")
	}
	got := RowMinima(a)
	want := RowMinimaBrute(a)
	if !eqInts(got, want) {
		t.Fatalf("RowMinima = %v, want %v", got, want)
	}
}

func TestRowMinimaMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomMonge(rng, m, n)
		if got, want := RowMinima(a), RowMinimaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestRowMinimaLeftmostTies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
		a := intMonge(rng, m, n)
		if !marray.IsMonge(a) {
			continue
		}
		if got, want := RowMinima(a), RowMinimaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestRowMaximaMatchesBruteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomInverseMonge(rng, m, n)
		if got, want := RowMaxima(a), RowMaximaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestRowMaximaLeftmostTies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
		a := marray.Negate(intMonge(rng, m, n))
		if !marray.IsInverseMonge(a) {
			continue
		}
		if got, want := RowMaxima(a), RowMaximaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestMongeRowMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		var a marray.Matrix = marray.RandomMonge(rng, m, n)
		if trial%2 == 0 {
			a = intMonge(rng, m, n)
			if !marray.IsMonge(a) {
				continue
			}
		}
		if got, want := MongeRowMaxima(a), RowMaximaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

// TestInverseMongeRowMinima checks the reduction that serves row minima of
// an inverse-Monge array a: they are the leftmost row maxima of the Monge
// array -a, found by MongeRowMaxima with the same leftmost tie rule.
func TestInverseMongeRowMinima(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		var a marray.Matrix = marray.RandomInverseMonge(rng, m, n)
		if trial%2 == 0 {
			a = marray.Negate(intMonge(rng, m, n))
			if !marray.IsInverseMonge(a) {
				continue
			}
		}
		if got, want := MongeRowMaxima(marray.Negate(a)), RowMinimaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestRowMinimaDegenerateShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 2}, {64, 3}, {3, 64}}
	for _, sh := range shapes {
		a := marray.RandomMonge(rng, sh[0], sh[1])
		if got, want := RowMinima(a), RowMinimaBrute(a); !eqInts(got, want) {
			t.Fatalf("shape %v: got %v want %v", sh, got, want)
		}
	}
	empty := marray.NewDense(0, 0)
	if got := RowMinima(empty); len(got) != 0 {
		t.Fatal("empty matrix should give empty result")
	}
}

func TestValuesAndSameOptima(t *testing.T) {
	a := marray.FromRows([][]float64{{3, 1}, {2, 2}})
	idx := []int{1, 0}
	v := Values(a, idx)
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("Values = %v", v)
	}
	if !SameOptima(a, []int{1, 0}, []int{1, 1}) {
		t.Fatal("SameOptima should compare values, row 1 is tied")
	}
	if SameOptima(a, []int{0, 0}, []int{1, 0}) {
		t.Fatal("row 0 values differ")
	}
	if SameOptima(a, []int{0}, []int{0, 0}) {
		t.Fatal("length mismatch should be false")
	}
}

func TestQuickSMAWKAgainstBrute(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		a := marray.RandomMonge(rng, m, n)
		return eqInts(RowMinima(a), RowMinimaBrute(a))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSMAWKOnFigure11DistanceArray(t *testing.T) {
	// The paper's introductory example: distances between two chains of a
	// convex polygon form an inverse-Monge array whose row maxima give
	// all-farthest neighbors.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m, n := 2+rng.Intn(40), 2+rng.Intn(40)
		p, q := marray.ConvexChainPair(rng, m, n)
		a := marray.ChainDistanceMatrix(p, q)
		if got, want := RowMaxima(a), RowMaximaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}
