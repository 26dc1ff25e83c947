package mindex

// Random Monge inputs produce degenerate envelopes — a handful of rows
// dominate every node, so per-node interval counts stay in the
// forward-walk regime (K <= 3 observed at n=4096) and the packed
// predecessor structure never builds. This test constructs the
// adversarial opposite: rows that are tangent lines to a parabola
// (column-reversed so the construction is Monge rather than
// inverse-Monge), where every row of a node wins its own envelope
// interval. The row root carries one interval per row, well past
// packedMinIvals, so the bitmap regime of findInterval is exercised by
// a real build end-to-end — packed_test.go covers the same code on
// synthetic layouts — and every answer is checked against the brute
// oracle. The transpose of that array is Monge too, and there every
// column of a column block wins its own interval of rows, so the
// column hierarchy reaches the packed regime the same way.

import (
	"math"
	"math/rand"
	"testing"

	"monge/internal/marray"
)

func TestPackedEngagesOnTangentLines(t *testing.T) {
	const m, n = 256, 512
	c := func(i int) float64 { return float64(i) * float64(n-1) / float64(m-1) }
	tangent := func(i, j int) float64 {
		jr := float64(n - 1 - j)
		return 2*c(i)*jr - c(i)*c(i)
	}
	rowSide := marray.Func{M: m, N: n, F: tangent}
	colSide := marray.Func{M: n, N: m, F: func(i, j int) float64 { return tangent(j, i) }}

	for _, tc := range []struct {
		name    string
		a       marray.Matrix
		columns bool // the hierarchy that must reach the packed regime
	}{
		{"rows", rowSide, false},
		{"columns", colSide, true},
	} {
		ix := Build(tc.a, Opts{})
		var envs []*env
		if tc.columns {
			for i := range ix.cols {
				envs = append(envs, &ix.cols[i])
			}
		} else {
			for i := range ix.nodes {
				envs = append(envs, &ix.nodes[i].env)
			}
		}
		packed, maxK := 0, 0
		for _, e := range envs {
			maxK = max(maxK, len(e.own))
			if e.pk != nil {
				packed++
			}
		}
		if packed == 0 || maxK < packedMinIvals {
			t.Fatalf("%s: packed structure never engaged: %d packed nodes, max %d intervals/node (threshold %d)",
				tc.name, packed, maxK, packedMinIvals)
		}
		t.Logf("%s: nodes=%d packed=%d maxIvals=%d", tc.name, len(envs), packed, maxK)

		rows, cols := tc.a.Rows(), tc.a.Cols()
		rng := rand.New(rand.NewSource(7))
		for q := 0; q < 300; q++ {
			r1 := rng.Intn(rows)
			r2 := r1 + rng.Intn(rows-r1)
			c1 := rng.Intn(cols)
			c2 := c1 + rng.Intn(cols-c1)
			got := ix.SubmatrixMax(r1, r2, c1, c2)
			best := Pos{Row: -1, Col: -1, Val: math.Inf(-1)}
			for i := r1; i <= r2; i++ {
				for j := c1; j <= c2; j++ {
					if v := tc.a.At(i, j); v > best.Val {
						best = Pos{Row: i, Col: j, Val: v}
					}
				}
			}
			if got != best {
				t.Fatalf("%s query %d [%d,%d]x[%d,%d]: got %+v want %+v", tc.name, q, r1, r2, c1, c2, got, best)
			}
			r := rng.Intn(rows)
			gv, ga := ix.rowRangeMax(r, c1, c2)
			if wv, wa := scanRowMax(tc.a, r, c1, c2); gv != wv || ga != wa {
				t.Fatalf("%s rowRangeMax(%d, %d, %d) = (%g, %d), scan (%g, %d)", tc.name, r, c1, c2, gv, ga, wv, wa)
			}
		}
	}
}
