package smawk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"monge/internal/marray"
)

func TestStaircaseRowMinimaSmall(t *testing.T) {
	inf := marray.Inf
	a := marray.FromRows([][]float64{
		{4, 2, 7, 9},
		{5, 1, 6, inf},
		{4, 0, inf, inf},
		{inf, inf, inf, inf},
	})
	if !marray.IsStaircaseMonge(a) {
		t.Fatal("test array should be staircase-Monge")
	}
	got := StaircaseRowMinima(a)
	want := []int{1, 1, 1, -1}
	if !eqInts(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStaircaseRowMinimaMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 400; trial++ {
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		a := marray.RandomStaircaseMonge(rng, m, n)
		got := StaircaseRowMinima(a)
		want := StaircaseRowMinimaBrute(a)
		if !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestStaircaseRowMinimaLargerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{{200, 10}, {10, 200}, {128, 128}, {333, 77}, {1, 50}, {50, 1}}
	for _, sh := range shapes {
		for trial := 0; trial < 5; trial++ {
			a := marray.RandomStaircaseMonge(rng, sh[0], sh[1])
			got := StaircaseRowMinima(a)
			want := StaircaseRowMinimaBrute(a)
			if !eqInts(got, want) {
				t.Fatalf("shape %v trial %d: mismatch", sh, trial)
			}
		}
	}
}

func TestStaircaseRowMinimaPlainMonge(t *testing.T) {
	// A plain Monge array is a staircase-Monge array with empty blocked
	// region; the staircase algorithm must agree with SMAWK.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomMonge(rng, m, n)
		if got, want := StaircaseRowMinima(a), RowMinima(a); !eqInts(got, want) {
			t.Fatalf("trial %d: staircase %v, smawk %v", trial, got, want)
		}
	}
}

func TestStaircaseRowMinimaTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
		d := intMonge(rng, m, n)
		if !marray.IsMonge(d) {
			continue
		}
		bounds := marray.RandomStaircaseBoundary(rng, m, n)
		for i := 0; i < m; i++ {
			for j := bounds[i]; j < n; j++ {
				d.Set(i, j, marray.Inf)
			}
		}
		got := StaircaseRowMinima(d)
		want := StaircaseRowMinimaBrute(d)
		if !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestStaircaseRowMinimaExtremeBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// All blocked.
	allBlocked := marray.StairFunc{
		M: 5, N: 5,
		F:     func(i, j int) float64 { return 0 },
		Bound: func(i int) int { return 0 },
	}
	got := StaircaseRowMinima(allBlocked)
	for _, g := range got {
		if g != -1 {
			t.Fatalf("all-blocked rows must give -1, got %v", got)
		}
	}
	// Single finite column, boundary drops immediately.
	steep := marray.StairFunc{
		M: 6, N: 6,
		F:     func(i, j int) float64 { return float64(j - i) },
		Bound: func(i int) int { return maxI(0, 1-i) },
	}
	got = StaircaseRowMinima(steep)
	want := StaircaseRowMinimaBrute(steep)
	if !eqInts(got, want) {
		t.Fatalf("steep: got %v want %v", got, want)
	}
	_ = rng
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestQuickStaircaseAgainstBrute(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(50), 1+rng.Intn(50)
		a := marray.RandomStaircaseMonge(rng, m, n)
		return eqInts(StaircaseRowMinima(a), StaircaseRowMinimaBrute(a))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIntSqrt(t *testing.T) {
	for x := 0; x < 2000; x++ {
		r := intSqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("intSqrt(%d) = %d", x, r)
		}
	}
}
