package hcmonge

import (
	"math/rand"
	"testing"
	"testing/quick"

	hc "monge/internal/hypercube"
	"monge/internal/marray"
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

// denseInputs converts a dense matrix into the distributed input model:
// v[i] = i, w[j] = j, f reads the matrix.
func denseInputs(a marray.Matrix) ([]int, []int, EntryFunc[int, int]) {
	v := make([]int, a.Rows())
	w := make([]int, a.Cols())
	for i := range v {
		v[i] = i
	}
	for j := range w {
		w[j] = j
	}
	return v, w, func(i, j int) float64 { return a.At(i, j) }
}

func TestRowMinimaMatchesSMAWK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomMonge(rng, m, n)
		want := smawk.RowMinima(a)
		v, w, f := denseInputs(a)
		got := RowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, w, f)
		if !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestRowMinimaAllKindsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		a := marray.RandomMonge(rng, m, n)
		v, w, f := denseInputs(a)
		want := smawk.RowMinima(a)
		for _, kind := range []hc.Kind{hc.Cube, hc.CCC, hc.Shuffle} {
			got := RowMinimaOn(MachineFor(kind, len(v), len(w)), v, w, f)
			if !eqInts(got, want) {
				t.Fatalf("trial %d kind %v: got %v want %v", trial, kind, got, want)
			}
		}
	}
}

func TestRowMinimaTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
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
		v, w, f := denseInputs(d)
		got := RowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, w, f)
		if !eqInts(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestMongeRowMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		a := marray.RandomMonge(rng, m, n)
		want := smawk.RowMaximaBrute(a)
		v, w, f := denseInputs(a)
		got := MongeRowMaximaOn(MachineFor(hc.Cube, len(v), len(w)), v, w, f)
		if !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestRowMinimaShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shapes := [][2]int{{1, 1}, {1, 40}, {40, 1}, {64, 64}, {100, 10}, {10, 100}, {33, 57}}
	for _, sh := range shapes {
		a := marray.RandomMonge(rng, sh[0], sh[1])
		v, w, f := denseInputs(a)
		got := RowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, w, f)
		if !eqInts(got, smawk.RowMinima(a)) {
			t.Fatalf("shape %v mismatch", sh)
		}
	}
}

func TestRowMinimaEmpty(t *testing.T) {
	got := RowMinimaOn(MachineFor(hc.Cube, 0, 0), nil, nil, func(a, b int) float64 { return 0 })
	if len(got) != 0 {
		t.Fatal("empty should give empty")
	}
}

// TestTheorem32TimeShape checks that hypercube time grows like lg n times
// a slowly growing factor: time(2048)/time(128) should be far below the
// 16x data-size ratio (lg ratio is 11/7 ~ 1.6; allow up to 4x for the
// lg lg n style factors).
func TestTheorem32TimeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	timeFor := func(n int) int64 {
		a := marray.RandomMonge(rng, n, n)
		v, w, f := denseInputs(a)
		mach := MachineFor(hc.Cube, len(v), len(w))
		RowMinimaOn(mach, v, w, f)
		return mach.Time()
	}
	t128, t2048 := timeFor(128), timeFor(2048)
	if t2048 > 4*t128 {
		t.Fatalf("hypercube time grows too fast: %d -> %d", t128, t2048)
	}
}

// TestGeometricInputModel demonstrates the distributed model with
// non-trivial cell types: farthest-neighbor distances between convex
// chains (the Figure 1.1 array), with points as the local values. The
// array is inverse-Monge, so its leftmost row maxima are the leftmost
// row minima of the negated (Monge) distances.
func TestGeometricInputModel(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		m, n := 2+rng.Intn(30), 2+rng.Intn(30)
		p, q := marray.ConvexChainPair(rng, m, n)
		a := marray.ChainDistanceMatrix(p, q)
		want := smawk.RowMaximaBrute(a)
		got := RowMinimaOn(MachineFor(hc.Cube, m, n), p, q, func(pp, qq marray.Point) float64 {
			return -marray.Dist(pp, qq)
		})
		if !eqInts(got, want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}

func TestQuickRowMinima(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		a := marray.RandomMonge(rng, m, n)
		v, w, f := denseInputs(a)
		got := RowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, w, f)
		return eqInts(got, smawk.RowMinima(a))
	}
	if err := quick.Check(fn, cfg); err != nil {
		t.Fatal(err)
	}
}
