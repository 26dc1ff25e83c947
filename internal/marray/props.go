package marray

import "math"

// IsMonge reports whether every 2x2 minor of a satisfies the Monge
// inequality a[i,j] + a[k,l] <= a[i,l] + a[k,j]. It suffices to check
// adjacent rows and columns; the general inequality follows by summing.
// Cost is O(m*n) entry evaluations (CheckMonge names the violated minor).
func IsMonge(a Matrix) bool { return CheckMonge(a) == nil }

// IsInverseMonge reports whether every 2x2 minor of a satisfies
// a[i,j] + a[k,l] >= a[i,l] + a[k,j].
func IsInverseMonge(a Matrix) bool { return CheckInverseMonge(a) == nil }

// mongeSlack returns an absolute tolerance proportional to the magnitude of
// the four entries, guarding the predicates against floating-point noise in
// geometrically-derived arrays (Euclidean distances etc.).
func mongeSlack(xs ...float64) float64 {
	m := 1.0
	for _, x := range xs {
		if a := math.Abs(x); a > m && !math.IsInf(x, 0) {
			m = a
		}
	}
	return 1e-9 * m
}

// IsStaircasePattern reports whether the +Inf entries of a are closed to
// the right and downward: a[i,j] = +Inf implies a[i,l] = +Inf for l > j and
// a[k,j] = +Inf for k > i. Equivalently, the first-blocked-column function
// is nonincreasing in the row index.
func IsStaircasePattern(a Matrix) bool { return checkBoundaries(a) == nil }

// IsStaircaseMonge reports whether a is a staircase-Monge array: the +Inf
// pattern is a valid staircase and the Monge inequality holds on every 2x2
// minor whose four entries are all finite.
func IsStaircaseMonge(a Matrix) bool {
	if !IsStaircasePattern(a) {
		return false
	}
	return checkFiniteMinors(a, func(x00, x01, x10, x11 float64) bool {
		return x00+x11 <= x01+x10+mongeSlack(x00, x01, x10, x11)
	})
}

// checkFiniteMinors verifies ok2x2 on all (not only adjacent) 2x2 minors
// whose entries are finite. Adjacency is not enough for staircase arrays:
// a blocked entry between two finite columns breaks the summation argument.
// Cost is O(m^2 n^2) and intended for tests on small arrays only.
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

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// IsTotallyMonotoneMax reports whether a is totally monotone with respect
// to row maxima: for i < k and j < l, a[i,j] < a[i,l] implies a[k,j] <
// a[k,l] (the falling-staircase condition used by SMAWK). Every
// inverse-Monge array is totally monotone in this sense, but not
// conversely.
func IsTotallyMonotoneMax(a Matrix) bool {
	m, n := a.Rows(), a.Cols()
	for i := 0; i < m; i++ {
		for k := i + 1; k < m; k++ {
			for j := 0; j < n; j++ {
				for l := j + 1; l < n; l++ {
					if a.At(i, j) < a.At(i, l) && a.At(k, j) >= a.At(k, l) {
						return false
					}
				}
			}
		}
	}
	return true
}

// IsTotallyMonotoneMin reports whether a is totally monotone with respect
// to row minima: for i < k and j < l, a[i,j] > a[i,l] implies a[k,j] >
// a[k,l]. Every Monge array is totally monotone in this sense.
func IsTotallyMonotoneMin(a Matrix) bool {
	m, n := a.Rows(), a.Cols()
	for i := 0; i < m; i++ {
		for k := i + 1; k < m; k++ {
			for j := 0; j < n; j++ {
				for l := j + 1; l < n; l++ {
					if a.At(i, j) > a.At(i, l) && a.At(k, j) <= a.At(k, l) {
						return false
					}
				}
			}
		}
	}
	return true
}
