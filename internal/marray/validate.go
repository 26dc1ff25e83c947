package marray

import (
	"math"

	"monge/internal/merr"
)

// This file provides the error-returning structural validators used at the
// public API boundaries, one exhaustive checker per property: CheckMonge,
// CheckInverseMonge and CheckStaircaseMonge verify every adjacent 2x2
// minor (and, for staircases, every row's +Inf boundary) in O(m*n) entry
// evaluations and return a typed error (merr.ErrNotMonge etc.) naming the
// first violation; IsMonge, IsInverseMonge, IsStaircaseMonge and
// IsStaircasePattern are these checks with the error dropped. The
// Check*Sampled variants probe a deterministic pseudo-random subset of the
// same minors and boundaries in O(m+n) evaluations, cheap enough for large
// implicit arrays. Both only ever test inequalities implied by the
// definitions, so neither can reject a valid array; the sampled variants
// can merely miss a violation (they are a screen, not a proof).

// sampleProbeFactor scales the sampled validators' probe count: roughly
// this many probes per unit of m+n, floored at sampleProbeMin.
const (
	sampleProbeFactor = 2
	sampleProbeMin    = 32
)

// splitmix is the splitmix64 mixer used to choose probe positions
// deterministically (no global RNG state, identical probes every run).
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// mongeMinorOK is the adjacent-minor Monge test with float slack.
func mongeMinorOK(a Matrix, i, j int) bool {
	x00, x01 := a.At(i, j), a.At(i, j+1)
	x10, x11 := a.At(i+1, j), a.At(i+1, j+1)
	return x00+x11 <= x01+x10+mongeSlack(x00, x01, x10, x11)
}

// inverseMinorOK is the adjacent-minor inverse-Monge test.
func inverseMinorOK(a Matrix, i, j int) bool {
	x00, x01 := a.At(i, j), a.At(i, j+1)
	x10, x11 := a.At(i+1, j), a.At(i+1, j+1)
	return x00+x11 >= x01+x10-mongeSlack(x00, x01, x10, x11)
}

// finiteMinor reports whether all four entries of the adjacent minor at
// (i, j) are finite.
func finiteMinor(a Matrix, i, j int) bool {
	return isFinite(a.At(i, j)) && isFinite(a.At(i, j+1)) &&
		isFinite(a.At(i+1, j)) && isFinite(a.At(i+1, j+1))
}

// checkAllMinors runs ok on every adjacent minor and reports the first
// failure via fail(i, j).
func checkAllMinors(a Matrix, ok func(a Matrix, i, j int) bool, fail func(i, j int) error) error {
	m, n := a.Rows(), a.Cols()
	for i := 0; i+1 < m; i++ {
		for j := 0; j+1 < n; j++ {
			if !ok(a, i, j) {
				return fail(i, j)
			}
		}
	}
	return nil
}

// checkSampledMinors probes a deterministic pseudo-random subset of the
// adjacent minors.
func checkSampledMinors(a Matrix, ok func(a Matrix, i, j int) bool, fail func(i, j int) error) error {
	m, n := a.Rows(), a.Cols()
	if m < 2 || n < 2 {
		return nil
	}
	probes := sampleProbeFactor * (m + n)
	if probes < sampleProbeMin {
		probes = sampleProbeMin
	}
	if total := (m - 1) * (n - 1); probes >= total {
		return checkAllMinors(a, ok, fail)
	}
	for t := 0; t < probes; t++ {
		h := splitmix(uint64(t))
		i := int(h % uint64(m-1))
		j := int((h >> 32) % uint64(n-1))
		if !ok(a, i, j) {
			return fail(i, j)
		}
	}
	return nil
}

// CheckMonge verifies the Monge inequality on every adjacent 2x2 minor
// (which implies it on all minors) in O(m*n) and returns an error matching
// merr.ErrNotMonge naming the first violated minor.
func CheckMonge(a Matrix) error {
	return checkAllMinors(a, mongeMinorOK, func(i, j int) error {
		return merr.Errorf(merr.ErrNotMonge, "2x2 minor at row %d, column %d violates a[i,j]+a[i+1,j+1] <= a[i,j+1]+a[i+1,j]", i, j)
	})
}

// CheckMongeSampled probes O(m+n) deterministic pseudo-random adjacent
// minors. It never rejects a true Monge array; a nil return means "no
// violation found", not a proof.
func CheckMongeSampled(a Matrix) error {
	return checkSampledMinors(a, mongeMinorOK, func(i, j int) error {
		return merr.Errorf(merr.ErrNotMonge, "sampled 2x2 minor at row %d, column %d violates a[i,j]+a[i+1,j+1] <= a[i,j+1]+a[i+1,j]", i, j)
	})
}

// CheckInverseMonge is CheckMonge for the reversed inequality, returning
// errors matching merr.ErrNotInverseMonge.
func CheckInverseMonge(a Matrix) error {
	return checkAllMinors(a, inverseMinorOK, func(i, j int) error {
		return merr.Errorf(merr.ErrNotInverseMonge, "2x2 minor at row %d, column %d violates a[i,j]+a[i+1,j+1] >= a[i,j+1]+a[i+1,j]", i, j)
	})
}

// CheckInverseMongeSampled is the sampled screen for inverse-Monge arrays.
func CheckInverseMongeSampled(a Matrix) error {
	return checkSampledMinors(a, inverseMinorOK, func(i, j int) error {
		return merr.Errorf(merr.ErrNotInverseMonge, "sampled 2x2 minor at row %d, column %d violates a[i,j]+a[i+1,j+1] >= a[i,j+1]+a[i+1,j]", i, j)
	})
}

// checkBoundaries verifies the staircase pattern: every row is (finite...,
// +Inf...) and the first blocked column is nonincreasing in the row, so
// the blocked region is closed to the right and downward. O(m*n).
func checkBoundaries(a Matrix) error {
	n := a.Cols()
	prev := n
	for i := 0; i < a.Rows(); i++ {
		f := n
		for j := 0; j < n; j++ {
			inf := math.IsInf(a.At(i, j), 1)
			if inf && f == n {
				f = j
			}
			if !inf && f < n {
				return merr.Errorf(merr.ErrNotStaircase,
					"row %d has a finite entry at column %d right of the +Inf boundary %d", i, j, f)
			}
		}
		if f > prev {
			return merr.Errorf(merr.ErrNotStaircase,
				"boundary widens from %d to %d at row %d (must be nonincreasing)", prev, f, i)
		}
		prev = f
	}
	return nil
}

// CheckStaircaseMonge verifies that the +Inf pattern of a is a valid
// staircase (merr.ErrNotStaircase otherwise) and that every adjacent fully
// finite 2x2 minor satisfies the Monge inequality (merr.ErrNotMonge
// otherwise). Both passes are O(m*n), and together they are the whole
// definition: on a staircase pattern every finite minor is a sum of
// adjacent finite ones (see IsStaircaseMonge).
func CheckStaircaseMonge(a Matrix) error {
	if err := checkBoundaries(a); err != nil {
		return err
	}
	return checkAllMinors(a, func(a Matrix, i, j int) bool {
		return !finiteMinor(a, i, j) || mongeMinorOK(a, i, j)
	}, func(i, j int) error {
		return merr.Errorf(merr.ErrNotMonge, "finite 2x2 minor at row %d, column %d violates the Monge inequality", i, j)
	})
}

// CheckStaircaseMongeSampled is the O(m+n)-evaluation screen for
// staircase-Monge arrays: it verifies the boundary pattern on a
// deterministic sample of adjacent row pairs and the Monge inequality on a
// deterministic sample of finite adjacent minors. It never rejects a valid
// staircase-Monge array.
func CheckStaircaseMongeSampled(a Matrix) error {
	if err := sampledBoundaries(a); err != nil {
		return err
	}
	return checkSampledMinors(a, func(a Matrix, i, j int) bool {
		return !finiteMinor(a, i, j) || mongeMinorOK(a, i, j)
	}, func(i, j int) error {
		return merr.Errorf(merr.ErrNotMonge, "sampled finite 2x2 minor at row %d, column %d violates the Monge inequality", i, j)
	})
}

// sampledBoundaries checks the staircase pattern on a deterministic sample
// of adjacent row pairs using BoundaryOf (binary search, so O(lg n) per
// row); each pair must have nonincreasing boundaries. Unlike the full
// check it trusts the rows' (finite..., Inf...) shape.
func sampledBoundaries(a Matrix) error {
	m := a.Rows()
	if m < 2 {
		return nil
	}
	probes := sampleProbeFactor * m
	if probes < sampleProbeMin {
		probes = sampleProbeMin
	}
	if probes >= m-1 {
		for i := 0; i+1 < m; i++ {
			if err := boundaryPairOK(a, i); err != nil {
				return err
			}
		}
		return nil
	}
	for t := 0; t < probes; t++ {
		i := int(splitmix(0xb0a2^uint64(t)) % uint64(m-1))
		if err := boundaryPairOK(a, i); err != nil {
			return err
		}
	}
	return nil
}

func boundaryPairOK(a Matrix, i int) error {
	if f0, f1 := BoundaryOf(a, i), BoundaryOf(a, i+1); f1 > f0 {
		return merr.Errorf(merr.ErrNotStaircase,
			"boundary widens from %d to %d between rows %d and %d (must be nonincreasing)", f0, f1, i, i+1)
	}
	return nil
}
