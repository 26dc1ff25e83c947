package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/smawk"
)

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

func machines(n int) []*pram.Machine {
	return []*pram.Machine{
		pram.New(pram.CRCW, n),
		pram.New(pram.CREW, n),
	}
}

func TestRowMinimaMatchesSMAWK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		a := marray.RandomMonge(rng, m, n)
		want := smawk.RowMinima(a)
		for _, mach := range machines(m + n) {
			got := RowMinima(mach, a)
			if !eqInts(got, want) {
				t.Fatalf("trial %d (%dx%d, %v): got %v want %v",
					trial, m, n, mach.Mode(), got, want)
			}
		}
	}
}

func TestRowMinimaLeftmostTies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 80; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		// integer-valued Monge array with many ties
		d := marray.NewDense(m, n)
		prefix := make([]float64, n)
		for i := 0; i < m; i++ {
			acc := 0.0
			for j := 0; j < n; j++ {
				acc -= float64(rng.Intn(2))
				prefix[j] += acc
				d.Set(i, j, prefix[j])
			}
		}
		want := smawk.RowMinimaBrute(d)
		for _, mach := range machines(m + n) {
			got := RowMinima(mach, d)
			if !eqInts(got, want) {
				t.Fatalf("trial %d (%v): got %v want %v", trial, mach.Mode(), got, want)
			}
		}
	}
}

func TestRowMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomInverseMonge(rng, m, n)
		want := smawk.RowMaximaBrute(a)
		for _, mach := range machines(m + n) {
			if got := RowMaxima(mach, a); !eqInts(got, want) {
				t.Fatalf("trial %d (%v): got %v want %v", trial, mach.Mode(), got, want)
			}
		}
	}
}

func TestMongeRowMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomMonge(rng, m, n)
		want := smawk.RowMaximaBrute(a)
		for _, mach := range machines(m + n) {
			if got := MongeRowMaxima(mach, a); !eqInts(got, want) {
				t.Fatalf("trial %d (%v): got %v want %v", trial, mach.Mode(), got, want)
			}
		}
	}
}

// TestInverseMongeRowMinima checks the reduction that serves row minima of
// an inverse-Monge array a on the PRAM: they are the leftmost row maxima
// of the Monge array -a.
func TestInverseMongeRowMinima(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomInverseMonge(rng, m, n)
		want := smawk.RowMinimaBrute(a)
		for _, mach := range machines(m + n) {
			if got := MongeRowMaxima(mach, marray.Negate(a)); !eqInts(got, want) {
				t.Fatalf("trial %d (%v): got %v want %v", trial, mach.Mode(), got, want)
			}
		}
	}
}

func TestRowMinimaRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shapes := [][2]int{{1, 1}, {1, 64}, {64, 1}, {256, 8}, {8, 256}, {100, 100}}
	for _, sh := range shapes {
		a := marray.RandomMonge(rng, sh[0], sh[1])
		want := smawk.RowMinima(a)
		for _, mach := range machines(sh[0] + sh[1]) {
			if got := RowMinima(mach, a); !eqInts(got, want) {
				t.Fatalf("shape %v (%v) mismatch", sh, mach.Mode())
			}
		}
	}
}

func TestRowMinimaEmpty(t *testing.T) {
	mach := pram.New(pram.CRCW, 1)
	if got := RowMinima(mach, marray.NewDense(0, 0)); len(got) != 0 {
		t.Fatal("empty should give empty")
	}
}

func TestQuickRowMinima(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(60), 1+rng.Intn(60)
		a := marray.RandomMonge(rng, m, n)
		mach := pram.New(pram.CRCW, m+n)
		return eqInts(RowMinima(mach, a), smawk.RowMinima(a))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRowMinimaCRCWLogTime checks the Table 1.1 shape claim: with n
// processors on a CRCW machine, time/lg(n) stays bounded as n grows.
func TestRowMinimaCRCWLogTime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	timeFor := func(n int) float64 {
		a := marray.RandomMonge(rng, n, n)
		mach := pram.New(pram.CRCW, n)
		RowMinima(mach, a)
		return float64(mach.Time()) / float64(pram.Log2Ceil(n))
	}
	r256 := timeFor(256)
	r2048 := timeFor(2048)
	if r2048 > 3*r256 {
		t.Fatalf("time/lg n grows too fast: %f -> %f", r256, r2048)
	}
}

func TestRowMinimaWorkNearLinear(t *testing.T) {
	// Work (processor-time product) should stay within ~lg n of the
	// sequential O(n) bound.
	rng := rand.New(rand.NewSource(8))
	n := 1024
	a := marray.RandomMonge(rng, n, n)
	mach := pram.New(pram.CRCW, n)
	RowMinima(mach, a)
	maxWork := int64(40 * n * pram.Log2Ceil(n))
	if mach.Work() > maxWork {
		t.Fatalf("work %d exceeds %d", mach.Work(), maxWork)
	}
}
