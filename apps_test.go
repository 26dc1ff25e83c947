package monge

import (
	"math"
	"math/rand"
	"testing"

	"monge/internal/geom"
	"monge/internal/marray"
)

func TestAppsFacadeNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, q, ob := geom.ObstructedChains(rng, 12, 14)
	obs := []Polygon{ob}
	mach := NewPRAM(CRCW, 26)
	res := Neighbors(NearestInvisible, mach, p, q, obs)
	if len(res.Index) != 12 {
		t.Fatal("result length wrong")
	}
	far := AllFarthestNeighbors(p, q)
	if len(far) != 12 {
		t.Fatal("farthest length wrong")
	}
	pfar := AllFarthestNeighborsPRAM(NewPRAM(CRCW, 26), p, q)
	for i := range far {
		if far[i] != pfar[i] {
			t.Fatal("PRAM farthest disagrees")
		}
	}
}

func TestAppsFacadeRects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]Point, 30)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	a1, i, j := MaxCornerRect(pts)
	a2, _, _ := MaxCornerRectPRAM(NewPRAM(CRCW, 30), pts)
	if a1 != a2 || i == j {
		t.Fatalf("corner rect mismatch: %v vs %v", a1, a2)
	}
	bounds := Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	full := LargestEmptyRect(pts, bounds)
	anch := LargestAnchoredRect(NewPRAM(CRCW, 30), pts, bounds)
	if anch.Area() > full.Area()+1e-9 {
		t.Fatal("anchored cannot beat the global optimum")
	}
}

func TestAppsFacadeStringEditing(t *testing.T) {
	c := UnitEditCosts()
	if EditDistance("kitten", "sitting", c) != 3 {
		t.Fatal("unit distance wrong")
	}
	mach := NewPRAM(CRCW, 64)
	if EditDistancePRAM(mach, "kitten", "sitting", c) != 3 {
		t.Fatal("PRAM distance wrong")
	}
	d, rep := EditDistanceHypercube(Hypercube, "flaw", "lawn", c)
	if d != 2 || rep.Time == 0 {
		t.Fatalf("hypercube distance %v (time %d)", d, rep.Time)
	}
	if LCSLength("ABCBDAB", "BDCABA") != 4 {
		t.Fatal("LCS wrong")
	}
}

func TestAppsFacadeDP(t *testing.T) {
	f, pred := LWS(5, func(i, j int) float64 { return float64((j - i) * (j - i)) })
	if len(f) != 6 || len(pred) != 6 {
		t.Fatal("LWS shapes wrong")
	}
	plan := LotSize([]float64{10, 20, 5}, []float64{50, 50, 50}, []float64{1, 1, 1})
	if plan.Cost <= 0 || len(plan.Orders) == 0 {
		t.Fatal("lot size result wrong")
	}
	if OptimalBST([]float64{3, 1, 4}) <= 0 {
		t.Fatal("OBST wrong")
	}
}

func TestAppsFacadeTransportAndBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cost := marray.RandomMonge(rng, 3, 4)
	shift := math.Inf(1)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			shift = math.Min(shift, cost.At(i, j))
		}
	}
	c := NewFunc(3, 4, func(i, j int) float64 { return cost.At(i, j) - shift })
	total, flows, err := TransportGreedy([]float64{5, 5, 5}, []float64{4, 4, 4, 3}, c)
	if err != nil || total < 0 || len(flows) == 0 {
		t.Fatalf("transport result wrong: %v, %v, %v", total, flows, err)
	}
	a := marray.RandomMonge(rng, 15, 15)
	dc := RowMinimaDC(a)
	sm, err := RowMinima(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sm {
		if dc[i] != sm[i] {
			t.Fatal("DC baseline disagrees with SMAWK")
		}
	}
	left, right := ANSV([]float64{3, 1, 4, 1, 5})
	if left[2] != 1 || right[0] != 1 {
		t.Fatalf("ANSV wrong: %v %v", left, right)
	}
}
