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
// minor whose four entries are all finite. Adjacent minors suffice, as
// for IsMonge: once the pattern is a staircase, a rectangle whose four
// corners are finite is finite throughout (its bottom-right corner is
// finite, and the blocked region is closed to the right and downward),
// so its inequality is the sum of the adjacent finite minors inside it.
// Cost is O(m*n) entry evaluations (CheckStaircaseMonge names the
// violation).
func IsStaircaseMonge(a Matrix) bool { return CheckStaircaseMonge(a) == nil }

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
