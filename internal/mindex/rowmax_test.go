package mindex

// Internal differential test of the column hierarchy: rowRangeMax must
// answer every single-row range maximum exactly as a direct scan does —
// value and leftmost column, blocked (+Inf) entries never winning, and
// (-Inf, -1) for a range that is entirely blocked.

import (
	"math"
	"math/rand"
	"testing"

	"monge/internal/marray"
)

// scanRowMax is the direct-scan definition of rowRangeMax.
func scanRowMax(a marray.Matrix, r, x, y int) (float64, int32) {
	best, arg := math.Inf(-1), int32(-1)
	for j := x; j <= y; j++ {
		if v := a.At(r, j); !math.IsInf(v, 1) && v > best {
			best, arg = v, int32(j)
		}
	}
	return best, arg
}

func TestRowRangeMaxMatchesScan(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand, m, n int) marray.Matrix
	}{
		{"real", func(rng *rand.Rand, m, n int) marray.Matrix { return marray.RandomMonge(rng, m, n) }},
		{"int-ties", func(rng *rand.Rand, m, n int) marray.Matrix { return marray.RandomMongeInt(rng, m, n, 2) }},
		{"all-ties", func(rng *rand.Rand, m, n int) marray.Matrix {
			return marray.Func{M: m, N: n, F: func(i, j int) float64 { return 5 }}
		}},
		{"inf-heavy-staircase", func(rng *rand.Rand, m, n int) marray.Matrix {
			return marray.RandomInfHeavyStaircase(rng, m, n)
		}},
		// Every row from m/2 on is fully blocked; the rows above keep a
		// finite prefix that shrinks by one per row.
		{"blocked-rows", func(rng *rand.Rand, m, n int) marray.Matrix {
			d := marray.RandomMongeInt(rng, m, n, 4)
			return marray.StairFunc{M: m, N: n, F: d.At, Bound: func(i int) int {
				if i >= m/2 {
					return 0
				}
				return max(n-i, 1)
			}}
		}},
	}
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {13, 17}, {17, 13}, {32, 33}}
	for _, fam := range families {
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			rng := rand.New(rand.NewSource(int64(7*m + n)))
			a := fam.gen(rng, m, n)
			ix := Build(a, Opts{})
			for r := 0; r < m; r++ {
				for x := 0; x < n; x++ {
					for y := x; y < n; y++ {
						gv, ga := ix.rowRangeMax(r, x, y)
						wv, wa := scanRowMax(a, r, x, y)
						if gv != wv || ga != wa {
							t.Fatalf("%s %dx%d: rowRangeMax(%d, %d, %d) = (%g, %d), scan (%g, %d)",
								fam.name, m, n, r, x, y, gv, ga, wv, wa)
						}
					}
				}
			}
		}
	}
}
