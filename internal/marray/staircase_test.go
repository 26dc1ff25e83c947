package marray

import (
	"math/rand"
	"testing"
)

// checkFiniteMinors verifies ok2x2 on all (not only adjacent) 2x2 minors
// whose entries are finite: the staircase-Monge definition checked
// directly, in O(m^2 n^2), as the oracle for IsStaircaseMonge.
func checkFiniteMinors(a Matrix, ok2x2 func(x00, x01, x10, x11 float64) bool) bool {
	m, n := a.Rows(), a.Cols()
	for i := 0; i < m; i++ {
		for k := i + 1; k < m; k++ {
			for j := 0; j < n; j++ {
				for l := j + 1; l < n; l++ {
					x00, x01 := a.At(i, j), a.At(i, l)
					x10, x11 := a.At(k, j), a.At(k, l)
					if isFinite(x00) && isFinite(x01) && isFinite(x10) && isFinite(x11) {
						if !ok2x2(x00, x01, x10, x11) {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// staircaseMongeByDefinition is the all-minors oracle: a staircase
// pattern, and the Monge inequality on every fully finite 2x2 minor.
func staircaseMongeByDefinition(a Matrix) bool {
	return IsStaircasePattern(a) && checkFiniteMinors(a, func(x00, x01, x10, x11 float64) bool {
		return x00+x11 <= x01+x10+mongeSlack(x00, x01, x10, x11)
	})
}

// TestIsStaircaseMongeMatchesDefinition pins the O(m*n) adjacent-minor
// IsStaircaseMonge to the all-minors oracle: both accept every seeded
// staircase-Monge array of the three generator families, and both
// reject each array after a planted finite-minor violation.
func TestIsStaircaseMongeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		m, n := 2+rng.Intn(14), 2+rng.Intn(14)
		for _, tc := range []struct {
			name string
			a    *Dense
		}{
			{"RandomStaircaseMonge", RandomStaircaseMonge(rng, m, n)},
			{"RandomStaircaseMongeInt", RandomStaircaseMongeInt(rng, m, n, 3)},
			{"RandomInfHeavyStaircase", Materialize(RandomInfHeavyStaircase(rng, m, n))},
		} {
			if !IsStaircaseMonge(tc.a) || !staircaseMongeByDefinition(tc.a) {
				t.Fatalf("trial %d: %s(%d,%d): IsStaircaseMonge=%v, definition=%v, want both true",
					trial, tc.name, m, n, IsStaircaseMonge(tc.a), staircaseMongeByDefinition(tc.a))
			}
			// Raise the top-left corner of the first fully finite
			// adjacent minor: that minor, and so the definition, fails.
			if i, j, ok := firstFiniteMinor(tc.a); ok {
				tc.a.Set(i, j, tc.a.At(i, j)+1e6)
				if IsStaircaseMonge(tc.a) || staircaseMongeByDefinition(tc.a) {
					t.Fatalf("trial %d: %s(%d,%d) with minor (%d,%d) violated: IsStaircaseMonge=%v, definition=%v, want both false",
						trial, tc.name, m, n, i, j, IsStaircaseMonge(tc.a), staircaseMongeByDefinition(tc.a))
				}
			}
		}
	}
}

// firstFiniteMinor returns the first adjacent 2x2 minor of a whose four
// entries are finite.
func firstFiniteMinor(a Matrix) (int, int, bool) {
	for i := 0; i+1 < a.Rows(); i++ {
		for j := 0; j+1 < a.Cols(); j++ {
			if finiteMinor(a, i, j) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}
