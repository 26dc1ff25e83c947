package hcmonge

import (
	"math/rand"
	"testing"
	"testing/quick"

	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/smawk"
)

// stairInputs converts a dense staircase-Monge matrix into the distributed
// model: v[i] = i with boundary, w[j] = j, f reads the matrix.
func stairInputs(a marray.Matrix) ([]int, []int, []int, EntryFunc[int, int]) {
	m, n := a.Rows(), a.Cols()
	v := make([]int, m)
	bound := make([]int, m)
	w := make([]int, n)
	for i := range v {
		v[i] = i
		bound[i] = marray.BoundaryOf(a, i)
	}
	for j := range w {
		w[j] = j
	}
	return v, bound, w, func(i, j int) float64 { return a.At(i, j) }
}

func TestStaircaseMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		a := marray.RandomStaircaseMonge(rng, m, n)
		want := smawk.StaircaseRowMinimaBrute(a)
		v, bound, w, f := stairInputs(a)
		got := StaircaseRowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, bound, w, f)
		if !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): got %v want %v", trial, m, n, got, want)
		}
	}
}

func TestStaircaseAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		a := marray.RandomStaircaseMonge(rng, m, n)
		want := smawk.StaircaseRowMinimaBrute(a)
		v, bound, w, f := stairInputs(a)
		for _, kind := range []hc.Kind{hc.Cube, hc.CCC, hc.Shuffle} {
			got := StaircaseRowMinimaOn(MachineFor(kind, len(v), len(w)), v, bound, w, f)
			if !eqInts(got, want) {
				t.Fatalf("trial %d kind %v: got %v want %v", trial, kind, got, want)
			}
		}
	}
}

func TestStaircaseLargerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shapes := [][2]int{{100, 100}, {150, 20}, {20, 150}, {1, 30}, {30, 1}, {64, 64}}
	for _, sh := range shapes {
		for trial := 0; trial < 3; trial++ {
			a := marray.RandomStaircaseMonge(rng, sh[0], sh[1])
			want := smawk.StaircaseRowMinimaBrute(a)
			v, bound, w, f := stairInputs(a)
			got := StaircaseRowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, bound, w, f)
			if !eqInts(got, want) {
				t.Fatalf("shape %v trial %d mismatch", sh, trial)
			}
		}
	}
}

func TestStaircaseAllBlocked(t *testing.T) {
	v := []int{0, 1, 2}
	bound := []int{0, 0, 0}
	w := []int{0, 1}
	got := StaircaseRowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, bound, w, func(i, j int) float64 { return 0 })
	for _, g := range got {
		if g != -1 {
			t.Fatalf("all blocked must give -1: %v", got)
		}
	}
}

func TestStaircasePlainMongeSpecialCase(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.Intn(25), 1+rng.Intn(25)
		a := marray.RandomMonge(rng, m, n)
		v, bound, w, f := stairInputs(a)
		got := StaircaseRowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, bound, w, f)
		if !eqInts(got, smawk.RowMinima(a)) {
			t.Fatalf("trial %d: plain Monge mismatch", trial)
		}
	}
}

func TestTheorem33TimeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	timeFor := func(n int) int64 {
		a := marray.RandomStaircaseMonge(rng, n, n)
		v, bound, w, f := stairInputs(a)
		mach := MachineFor(hc.Cube, len(v), len(w))
		StaircaseRowMinimaOn(mach, v, bound, w, f)
		return mach.Time()
	}
	t128, t1024 := timeFor(128), timeFor(1024)
	if t1024 > 4*t128 {
		t.Fatalf("staircase hypercube time grows too fast: %d -> %d", t128, t1024)
	}
}

func TestQuickStaircaseHypercube(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		a := marray.RandomStaircaseMonge(rng, m, n)
		v, bound, w, f := stairInputs(a)
		got := StaircaseRowMinimaOn(MachineFor(hc.Cube, len(v), len(w)), v, bound, w, f)
		return eqInts(got, smawk.StaircaseRowMinimaBrute(a))
	}
	if err := quick.Check(fn, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTubeMaximaHypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 25; trial++ {
		p, q, r := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		c := marray.RandomComposite(rng, p, q, r)
		wantJ, wantV := smawk.TubeMaxima(c)
		gotJ, gotV := TubeMaximaOn(TubeMachineFor(hc.Cube, c), c)
		for i := 0; i < p; i++ {
			if !eqInts(gotJ[i], wantJ[i]) {
				t.Fatalf("trial %d slice %d: got %v want %v", trial, i, gotJ[i], wantJ[i])
			}
			for k := 0; k < r; k++ {
				if gotV[i][k] != wantV[i][k] {
					t.Fatalf("value mismatch at (%d,%d)", i, k)
				}
			}
		}
	}
}

func TestTheorem34TimeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	timeFor := func(n int) int64 {
		c := marray.RandomComposite(rng, n, n, n)
		mach := TubeMachineFor(hc.Cube, c)
		TubeMaximaOn(mach, c)
		return mach.Time()
	}
	t32, t128 := timeFor(32), timeFor(128)
	if t128 > 3*t32 {
		t.Fatalf("tube hypercube time grows too fast: %d -> %d", t32, t128)
	}
}
