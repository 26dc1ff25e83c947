package marray

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(0, 0, 1)
	d.Set(1, 2, 7)
	if d.Rows() != 2 || d.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", d.Rows(), d.Cols())
	}
	if d.At(0, 0) != 1 || d.At(1, 2) != 7 || d.At(0, 1) != 0 {
		t.Fatalf("unexpected entries: %v %v %v", d.At(0, 0), d.At(1, 2), d.At(0, 1))
	}
	r := d.Row(1)
	if len(r) != 3 || r[2] != 7 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 99
	if d.At(1, 0) == 99 {
		t.Fatal("Row must return a copy")
	}
}

func TestFromRowsAndMaterialize(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if d.Rows() != 3 || d.Cols() != 2 || d.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %v", d)
	}
	f := Func{M: 3, N: 2, F: func(i, j int) float64 { return float64(10*i + j) }}
	m := Materialize(f)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != f.At(i, j) {
				t.Fatalf("Materialize mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestDenseOfWraps pins that DenseOf shares the caller's slice
// row-major and rejects a length that is not m*n.
func TestDenseOfWraps(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	d := DenseOf(2, 3, data)
	if d.Rows() != 2 || d.Cols() != 3 || d.At(1, 0) != 4 || d.At(0, 2) != 3 {
		t.Fatalf("DenseOf(2, 3) read wrong: %v", d)
	}
	data[5] = 9
	if d.At(1, 2) != 9 {
		t.Fatal("DenseOf copied its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DenseOf should panic on a length that is not m*n")
		}
	}()
	DenseOf(2, 2, data)
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromRows should panic on ragged input")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestNewDenseNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense should panic on negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestAdapters(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := Transpose(a)
	if tr.Rows() != 3 || tr.Cols() != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatal("Transpose wrong")
	}
	if Transpose(tr) != Matrix(a) {
		t.Fatal("double Transpose should unwrap")
	}
	ng := Negate(a)
	if ng.At(1, 2) != -6 {
		t.Fatal("Negate wrong")
	}
	if Negate(ng) != Matrix(a) {
		t.Fatal("double Negate should unwrap")
	}
	rc := ReverseCols(a)
	if rc.At(0, 0) != 3 || rc.At(1, 2) != 4 {
		t.Fatal("ReverseCols wrong")
	}
	if ReverseCols(rc) != Matrix(a) {
		t.Fatal("double ReverseCols should unwrap")
	}
	rr := ReverseRows(a)
	if rr.At(0, 0) != 4 || rr.At(1, 2) != 3 {
		t.Fatal("ReverseRows wrong")
	}
	if ReverseRows(rr) != Matrix(a) {
		t.Fatal("double ReverseRows should unwrap")
	}
}

func TestWindow(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	w := Window(a, 1, 1, 2, 2)
	if w.Rows() != 2 || w.Cols() != 2 || w.At(0, 0) != 5 || w.At(1, 1) != 9 {
		t.Fatal("Window wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Window should panic")
		}
	}()
	Window(a, 2, 2, 2, 2)
}

func TestStairFuncAndBoundary(t *testing.T) {
	s := StairFunc{
		M: 4, N: 5,
		F:     func(i, j int) float64 { return float64(i + j) },
		Bound: func(i int) int { return 4 - i },
	}
	if !math.IsInf(s.At(0, 4), 1) || s.At(0, 3) != 3 {
		t.Fatal("StairFunc blocking wrong")
	}
	if s.Boundary(2) != 2 {
		t.Fatal("Boundary wrong")
	}
	if BoundaryOf(s, 2) != 2 {
		t.Fatal("BoundaryOf should use Staircase fast path")
	}
	// BoundaryOf via binary search on a plain matrix.
	d := Materialize(s)
	for i := 0; i < 4; i++ {
		if got, want := BoundaryOf(d, i), 4-i; got != want {
			t.Fatalf("BoundaryOf(row %d) = %d, want %d", i, got, want)
		}
	}
	full := FromRows([][]float64{{1, 2}, {3, 4}})
	if BoundaryOf(full, 0) != 2 {
		t.Fatal("BoundaryOf on fully finite row should return Cols()")
	}
}

func TestMongePredicatesOnKnownArrays(t *testing.T) {
	a := Func{M: 5, N: 5, F: func(i, j int) float64 {
		return float64((i - j) * (i - j)) // convex in i-j, hence Monge
	}}
	if !IsMonge(a) {
		t.Fatal("(i-j)^2 should be Monge")
	}
	if !IsInverseMonge(Negate(a)) {
		t.Fatal("negation should be inverse-Monge")
	}
	if !IsInverseMonge(ReverseCols(a)) {
		t.Fatal("column reversal should turn Monge into inverse-Monge")
	}
	if !IsInverseMonge(ReverseRows(a)) {
		t.Fatal("row reversal should turn Monge into inverse-Monge")
	}
	// An anti-diagonal "bowl" violates the Monge condition: 10+10 > 0+0.
	notMonge := FromRows([][]float64{{10, 0}, {0, 10}})
	if IsMonge(notMonge) {
		t.Fatal("anti-diagonal bowl accepted as Monge")
	}
	if !IsInverseMonge(notMonge) {
		t.Fatal("anti-diagonal bowl is inverse-Monge and should be accepted")
	}
}

func TestRandomMongeIsMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		a := RandomMonge(rng, m, n)
		if !IsMonge(a) {
			t.Fatalf("RandomMonge(%d,%d) not Monge (trial %d)", m, n, trial)
		}
		if !IsTotallyMonotoneMin(a) {
			t.Fatalf("RandomMonge(%d,%d) not totally monotone for minima", m, n)
		}
		b := RandomInverseMonge(rng, m, n)
		if !IsInverseMonge(b) {
			t.Fatalf("RandomInverseMonge(%d,%d) not inverse-Monge", m, n)
		}
		if !IsTotallyMonotoneMax(b) {
			t.Fatalf("RandomInverseMonge(%d,%d) not totally monotone for maxima", m, n)
		}
	}
}

func TestRandomStaircaseMongeIsStaircaseMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := RandomStaircaseMonge(rng, m, n)
		if !IsStaircaseMonge(a) {
			t.Fatalf("RandomStaircaseMonge(%d,%d) invalid (trial %d)", m, n, trial)
		}
	}
}

func TestStaircasePatternRejectsBadPatterns(t *testing.T) {
	inf := Inf
	bad1 := FromRows([][]float64{
		{1, inf, 2}, // finite to the right of Inf
		{1, 1, 1},
	})
	if IsStaircasePattern(bad1) {
		t.Fatal("finite entry right of Inf accepted")
	}
	bad2 := FromRows([][]float64{
		{1, inf},
		{1, 1}, // row below has finite where row above blocked
	})
	if IsStaircasePattern(bad2) {
		t.Fatal("non-downward-closed pattern accepted")
	}
	good := FromRows([][]float64{
		{1, 2, inf},
		{1, inf, inf},
	})
	if !IsStaircasePattern(good) {
		t.Fatal("valid staircase rejected")
	}
}

func TestStaircaseMongeRejectsNonMongeFinitePart(t *testing.T) {
	inf := Inf
	// Minor rows (0,1) x cols (0,2): 0 + 50 <= 1*0 + 0 fails, so the finite
	// part is not Monge even though the Inf pattern is a valid staircase.
	f := FromRows([][]float64{
		{0, 1, 0},
		{0, 1, 50},
		{40, 1, inf},
	})
	if !IsStaircasePattern(f) {
		t.Fatal("pattern of f should be valid")
	}
	if IsStaircaseMonge(f) {
		t.Fatal("IsStaircaseMonge must reject a finite-minor violation")
	}
}

func TestComposite(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	e := FromRows([][]float64{{10, 20, 30}, {40, 50, 60}})
	c := NewComposite(d, e)
	if c.P() != 2 || c.Q() != 2 || c.R() != 3 {
		t.Fatalf("dims = %d,%d,%d", c.P(), c.Q(), c.R())
	}
	if c.At(1, 0, 2) != 3+30 {
		t.Fatalf("At(1,0,2) = %v", c.At(1, 0, 2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewComposite should panic on dim mismatch")
		}
	}()
	NewComposite(d, FromRows([][]float64{{1}}))
}

func TestConvexPolygonIsConvexCCW(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(40)
		pts := ConvexPolygon(rng, n)
		if len(pts) != n {
			t.Fatalf("got %d points, want %d", len(pts), n)
		}
		for i := 0; i < n; i++ {
			a, b, c := pts[i], pts[(i+1)%n], pts[(i+2)%n]
			cross := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
			if cross <= 0 {
				t.Fatalf("not strictly convex CCW at %d (cross=%v)", i, cross)
			}
		}
	}
}

func TestChainDistanceMatrixInverseMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		m, n := 2+rng.Intn(15), 2+rng.Intn(15)
		p, q := ConvexChainPair(rng, m, n)
		a := ChainDistanceMatrix(p, q)
		if a.Rows() != m || a.Cols() != n {
			t.Fatal("dims wrong")
		}
		if !IsInverseMonge(a) {
			t.Fatalf("chain distance matrix not inverse-Monge (trial %d)", trial)
		}
	}
}

// Property: windows, row bands, the transpose and the double reversal of
// Monge arrays remain Monge.
func TestQuickMongeClosedUnderViews(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(10), 2+rng.Intn(10)
		a := RandomMonge(rng, m, n)
		i0, j0 := rng.Intn(m), rng.Intn(n)
		h, w := 1+rng.Intn(m-i0), 1+rng.Intn(n-j0)
		if !IsMonge(Window(a, i0, j0, h, w)) {
			return false
		}
		if !IsMonge(RowBand(a, i0, h)) || !IsMonge(Transpose(a)) {
			return false
		}
		return IsMonge(ReverseRows(ReverseCols(a)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRandomStaircaseBoundaryMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		f := RandomStaircaseBoundary(rng, m, n)
		for i := 1; i < m; i++ {
			if f[i] > f[i-1] {
				t.Fatalf("boundary increases at %d: %v", i, f)
			}
			if f[i] < 0 || f[i] > n {
				t.Fatalf("boundary out of range: %v", f)
			}
		}
	}
}

func TestConvexGapMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 30; trial++ {
		m, n := 2+rng.Intn(15), 2+rng.Intn(15)
		rows := make([]float64, m)
		cols := make([]float64, n)
		for i := range rows {
			rows[i] = rng.Float64() * 10
		}
		for j := range cols {
			cols[j] = rng.Float64() * 10
		}
		a := rng.Float64() * 3
		h := func(gap int) float64 { return a * float64(gap) * float64(gap) }
		g := ConvexGapMonge(rows, cols, h)
		if g.Rows() != m || g.Cols() != n {
			t.Fatal("dims wrong")
		}
		if !IsMonge(g) {
			t.Fatalf("trial %d: convex-gap array not Monge", trial)
		}
	}
}
