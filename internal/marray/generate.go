package marray

import (
	"math"
	"math/rand"
)

// RandomMonge returns a dense m x n Monge array built by the cumulative-sum
// construction: a[i,j] = r[i] + c[j] + sum_{k<=i, l<=j} q[k][l] with every
// q[k][l] <= 0. The cross difference of any 2x2 minor is then the sum of a
// rectangle of q values, so the Monge inequality holds with equality exactly
// when the rectangle is empty. r and c are arbitrary, which exercises
// searching code against non-monotone rows and columns.
func RandomMonge(rng *rand.Rand, m, n int) *Dense {
	d := NewDense(m, n)
	rowOff := make([]float64, m)
	colOff := make([]float64, n)
	for i := range rowOff {
		rowOff[i] = rng.Float64()*200 - 100
	}
	for j := range colOff {
		colOff[j] = rng.Float64()*200 - 100
	}
	// After processing row i, prefix[j] = sum_{k<=i, l<=j} q[k][l].
	prefix := make([]float64, n)
	for i := 0; i < m; i++ {
		acc := 0.0
		for j := 0; j < n; j++ {
			q := -rng.Float64() * 10 // q <= 0
			acc += q
			prefix[j] += acc
			d.Set(i, j, rowOff[i]+colOff[j]+prefix[j])
		}
	}
	return d
}

// RandomMongeInt returns a dense m x n Monge array with small integer
// entries, by the same cumulative-sum construction as RandomMonge with
// q[k][l] drawn from {0, -1, ..., -(spread-1)}. Integer sums are exact in
// float64 and collide often, so equal-value ties are plentiful — the input
// family that exercises leftmost-tie-breaking rules (the fuzz harness
// leans on it; random real-valued arrays essentially never tie).
func RandomMongeInt(rng *rand.Rand, m, n, spread int) *Dense {
	if spread < 1 {
		spread = 1
	}
	d := NewDense(m, n)
	rowOff := make([]float64, m)
	colOff := make([]float64, n)
	for i := range rowOff {
		rowOff[i] = float64(rng.Intn(2 * spread))
	}
	for j := range colOff {
		colOff[j] = float64(rng.Intn(2 * spread))
	}
	prefix := make([]float64, n)
	for i := 0; i < m; i++ {
		acc := 0.0
		for j := 0; j < n; j++ {
			acc -= float64(rng.Intn(spread))
			prefix[j] += acc
			d.Set(i, j, rowOff[i]+colOff[j]+prefix[j])
		}
	}
	return d
}

// RandomStaircaseMongeInt is RandomStaircaseMonge over an integer-valued
// Monge core: a tie-rich staircase-Monge array (with probability ~1/4 the
// boundary is all-n, i.e. a plain Monge array).
func RandomStaircaseMongeInt(rng *rand.Rand, m, n, spread int) *Dense {
	d := RandomMongeInt(rng, m, n, spread)
	if rng.Intn(4) == 0 {
		return d
	}
	bounds := RandomStaircaseBoundary(rng, m, n)
	for i := 0; i < m; i++ {
		for j := bounds[i]; j < n; j++ {
			d.Set(i, j, Inf)
		}
	}
	return d
}

// RandomInverseMonge returns a dense m x n inverse-Monge array (the
// negation of a RandomMonge array, re-centered so values stay in a similar
// range).
func RandomInverseMonge(rng *rand.Rand, m, n int) *Dense {
	d := RandomMonge(rng, m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, -d.At(i, j))
		}
	}
	return d
}

// RandomStaircaseMonge returns a dense m x n staircase-Monge array: a
// RandomMonge core with entries at and beyond a random nonincreasing
// per-row boundary replaced by +Inf. With probability ~1/4 the boundary is
// all-n (a plain Monge array), since plain Monge arrays are a special case
// the paper's algorithms must handle.
func RandomStaircaseMonge(rng *rand.Rand, m, n int) *Dense {
	d := RandomMonge(rng, m, n)
	if rng.Intn(4) == 0 {
		return d
	}
	bounds := RandomStaircaseBoundary(rng, m, n)
	for i := 0; i < m; i++ {
		for j := bounds[i]; j < n; j++ {
			d.Set(i, j, Inf)
		}
	}
	return d
}

// RandomStaircaseBoundary returns a nonincreasing boundary vector f of
// length m with 0 <= f[i] <= n and f[0] biased high so most of the array
// stays finite.
func RandomStaircaseBoundary(rng *rand.Rand, m, n int) []int {
	f := make([]int, m)
	cur := n - rng.Intn(n/4+1)
	for i := 0; i < m; i++ {
		if rng.Intn(3) == 0 && cur > 0 {
			cur -= rng.Intn(minInt(cur, maxInt(1, n/m+1)) + 1)
		}
		if cur < 0 {
			cur = 0
		}
		f[i] = cur
	}
	return f
}

// RandomComposite returns a p x q x r Monge-composite array with random
// Monge factors.
func RandomComposite(rng *rand.Rand, p, q, r int) Composite {
	return NewComposite(RandomMonge(rng, p, q), RandomMonge(rng, q, r))
}

// ConvexGapMonge returns the implicit m x n Monge array
// a[i,j] = r[i] + c[j] + h(j - i) for a convex gap penalty h, the standard
// Monge family of the sequence-alignment literature ([LS89, EGGI90]):
// convexity of h in the gap makes every 2x2 minor satisfy the Monge
// inequality.
func ConvexGapMonge(rowOff, colOff []float64, h func(gap int) float64) Matrix {
	return Func{M: len(rowOff), N: len(colOff), F: func(i, j int) float64 {
		return rowOff[i] + colOff[j] + h(j-i)
	}}
}

// Point is a planar point, used by the geometric generators.
type Point struct{ X, Y float64 }

// ConvexChainPair samples a convex polygon with m+n vertices on an ellipse
// (randomly perturbed radii kept convex by construction on sorted angles of
// a circle) and splits it into two chains P (counterclockwise, m vertices)
// and Q (counterclockwise, n vertices), as in Figure 1.1 of the paper.
func ConvexChainPair(rng *rand.Rand, m, n int) (p, q []Point) {
	total := m + n
	pts := ConvexPolygon(rng, total)
	return pts[:m], pts[m:]
}

// ConvexPolygon returns total >= 3 points in convex position, in
// counterclockwise order, sampled as distinct angles on a circle of random
// radius with a random center. Points on a circle are always in convex
// position.
func ConvexPolygon(rng *rand.Rand, total int) []Point {
	angles := make([]float64, total)
	// Distinct sorted angles in [0, 2*pi): take random positive gaps.
	sum := 0.0
	for i := range angles {
		g := rng.Float64() + 0.05
		sum += g
		angles[i] = sum
	}
	scale := 2 * math.Pi / (sum + rng.Float64() + 0.05)
	r := 50 + rng.Float64()*50
	cx, cy := rng.Float64()*20-10, rng.Float64()*20-10
	pts := make([]Point, total)
	for i, a := range angles {
		t := a * scale
		pts[i] = Point{X: cx + r*math.Cos(t), Y: cy + r*math.Sin(t)}
	}
	return pts
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// ChainDistanceMatrix returns the implicit m x n array of Euclidean
// distances a[i][j] = d(p[i], q[j]) between two convex chains obtained by
// splitting one convex polygon. By the quadrangle inequality this array is
// inverse-Monge (paper, Section 1.2).
func ChainDistanceMatrix(p, q []Point) Matrix {
	return Func{M: len(p), N: len(q), F: func(i, j int) float64 {
		return Dist(p[i], q[j])
	}}
}

// RandomNearTieMonge returns a Monge array whose entries collide at two
// scales: a spread-1 integer Monge base (exact ties everywhere) plus a
// second integer Monge term scaled down to 2^-30 (about 1e-9), which
// splits most exact ties by amounts that vanish under naive float
// tolerance. Exact comparisons (and exact leftmost tie-breaking on the
// surviving ties) are the only way through such inputs — any
// epsilon-based shortcut in a kernel shows up as an index mismatch. The
// sum of two Monge arrays is Monge; for m·n up to 2^22 the power-of-two
// scale keeps every entry, and every sum of two entries, exact in
// float64, so the array is Monge as stored and so are the (min,+)
// slices built from it. (A 1e-9 scale rounds, which breaks the Monge
// inequality by an ulp.)
func RandomNearTieMonge(rng *rand.Rand, m, n int) *Dense {
	base := RandomMongeInt(rng, m, n, 1)
	tiny := RandomMongeInt(rng, m, n, 2)
	d := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			d.Set(i, j, base.At(i, j)+0x1p-30*tiny.At(i, j))
		}
	}
	return d
}

// RandomInfHeavyStaircase returns a staircase-Monge array dominated by
// its blocked region: the boundary starts at roughly n/2 at row 0 and
// falls by one per row, so most entries are +Inf and the lower rows are
// fully blocked (-1 answers dominate row minima). The finite core is a
// tie-dense integer Monge array; imposing a nonincreasing boundary on a
// Monge array yields a staircase-Monge array. The result carries the
// Staircase interface; use Materialize for the dense +Inf form.
func RandomInfHeavyStaircase(rng *rand.Rand, m, n int) Staircase {
	d := RandomMongeInt(rng, m, n, 2)
	b0 := rng.Intn(n/2 + 1)
	return StairFunc{M: m, N: n, F: d.At, Bound: func(i int) int {
		b := b0 - i
		if b < 0 {
			b = 0
		}
		return b
	}}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
