package monge

import (
	"math/rand"
	"testing"

	"monge/internal/marray"
)

func TestFacadeSequential(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 7},
		{5, 1, 6},
		{6, 0, 5},
	})
	if !IsMonge(a) {
		t.Fatal("test array should be Monge")
	}
	if got, err := RowMinima(a); err != nil || got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("RowMinima = %v, %v", got, err)
	}
	if got, err := MongeRowMaxima(a); err != nil || got[0] != 2 || got[2] != 0 {
		t.Fatalf("MongeRowMaxima = %v, %v", got, err)
	}
	inv := Negate(a)
	if !IsInverseMonge(inv) {
		t.Fatal("negation should be inverse-Monge")
	}
	if got, err := RowMaxima(inv); err != nil || got[1] != 1 {
		t.Fatalf("RowMaxima = %v, %v", got, err)
	}
}

func TestFacadeStaircase(t *testing.T) {
	s := NewStair(3, 3,
		func(i, j int) float64 { return float64((i-j)*(i-j) + j) },
		func(i int) int { return 3 - i },
	)
	if !IsStaircaseMonge(s) {
		t.Fatal("stair should be staircase-Monge")
	}
	idx, err := StaircaseRowMinima(s)
	if err != nil || len(idx) != 3 {
		t.Fatalf("StaircaseRowMinima = %v, %v", idx, err)
	}
	mach := NewPRAM(CRCW, 8)
	pidx, err := StaircaseRowMinimaPRAM(mach, s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if idx[i] != pidx[i] {
			t.Fatalf("PRAM staircase disagrees at %d", i)
		}
	}
}

func TestFacadePRAMAndViews(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := marray.RandomMonge(rng, 20, 20)
	mach := NewPRAM(CREW, 40)
	got, err := RowMinimaPRAM(mach, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RowMinima(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("PRAM row minima disagree")
		}
	}
	if mach.Time() == 0 || mach.Work() == 0 {
		t.Fatal("counters must be charged")
	}
	tr := Transpose(a)
	if tr.Rows() != a.Cols() {
		t.Fatal("transpose dims")
	}
	if ReverseCols(ReverseRows(a)).At(0, 0) != a.At(19, 19) {
		t.Fatal("reversal views wrong")
	}
}

func TestFacadeTube(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := NewComposite(marray.RandomMonge(rng, 5, 6), marray.RandomMonge(rng, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	argJ, vals, err := TubeMaxima(c)
	if err != nil {
		t.Fatal(err)
	}
	mach := NewPRAM(CREW, 5*13)
	pArgJ, pVals, err := TubeMaximaPRAM(mach, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range argJ {
		for k := range argJ[i] {
			if argJ[i][k] != pArgJ[i][k] || vals[i][k] != pVals[i][k] {
				t.Fatal("tube results disagree")
			}
		}
	}
}

func TestFacadeHypercube(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 16
	a := marray.RandomMonge(rng, n, n)
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
		w[i] = float64(i)
	}
	f := func(vi, wj float64) float64 { return a.At(int(vi), int(wj)) }
	want, err := RowMinima(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []NetworkKind{Hypercube, CCC, ShuffleExchange} {
		mach := NewNetworkFor(kind, n, n)
		got, err := RowMinimaHypercube(mach, v, w, f)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kind %v disagrees", kind)
			}
		}
		if mach.Time() == 0 {
			t.Fatal("network time must be charged")
		}
	}
	gotMax, err := MongeRowMaximaHypercube(NewNetworkFor(Hypercube, n, n), v, w, f)
	if err != nil {
		t.Fatal(err)
	}
	wantMax, err := MongeRowMaxima(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantMax {
		if gotMax[i] != wantMax[i] {
			t.Fatal("hypercube maxima disagree")
		}
	}
	// staircase
	bounds := marray.RandomStaircaseBoundary(rng, n, n)
	st := NewStair(n, n, func(i, j int) float64 { return a.At(i, j) }, func(i int) int { return bounds[i] })
	wantSt, err := StaircaseRowMinima(st)
	if err != nil {
		t.Fatal(err)
	}
	gotSt, err := StaircaseRowMinimaHypercube(NewNetworkFor(Hypercube, n, n), v, bounds, w, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantSt {
		if gotSt[i] != wantSt[i] {
			t.Fatal("hypercube staircase disagrees")
		}
	}
	// tube
	c, err := NewComposite(marray.RandomMonge(rng, 6, 6), marray.RandomMonge(rng, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	wantJ, _, err := TubeMaxima(c)
	if err != nil {
		t.Fatal(err)
	}
	gotJ, _, err := TubeMaximaHypercube(NewTubeNetworkFor(Hypercube, c), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantJ {
		for k := range wantJ[i] {
			if gotJ[i][k] != wantJ[i][k] {
				t.Fatal("hypercube tube disagrees")
			}
		}
	}
}
