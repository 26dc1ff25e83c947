package smawk_test

import (
	"math"
	"math/rand"
	"testing"

	"monge/internal/marray"
	"monge/internal/native"
	"monge/internal/smawk"
)

// The fuzz targets drive the searching algorithms with the seeded
// generators of internal/marray and check them index-for-index against
// the brute-force oracles. Exact index equality is the leftmost-tie
// check: the brute scans keep the first optimum of each row, so any
// tie-breaking drift in the recursive algorithms is a mismatch, not just
// a different-but-equal optimum. Each input is exercised twice, once with
// real-valued entries (ties essentially never) and once with small
// integer entries (ties constantly), so both the generic path and the
// tie-handling path stay covered. Every kernel additionally runs through
// the native execution backend (internal/native) on the same inputs —
// one shared corpus exercises the sequential algorithm, the brute
// oracle, and the native backend per target.
//
// This file is an external test package (smawk_test) so it can import
// internal/native, which itself depends on smawk; the corpora under
// testdata/fuzz are keyed by target name and replay unchanged.
//
// Run locally with
//
//	go test ./internal/smawk -run='^$' -fuzz=FuzzSMAWKMatchesBrute -fuzztime=30s
//	go test ./internal/smawk -run='^$' -fuzz=FuzzStaircaseRowMinima -fuzztime=30s
//	go test ./internal/smawk -run='^$' -fuzz=FuzzTubeMaximaMatchesBrute -fuzztime=30s
//
// The committed corpora under testdata/fuzz keep the interesting shapes
// (square, wide, tall, single row/column, tie/∞-heavy) replaying as
// plain tests.

// fuzzDim maps an arbitrary fuzzed int to a usable dimension in [1, 96].
func fuzzDim(x int) int {
	if x < 0 {
		x = -x
	}
	return x%96 + 1
}

func diffIdx(got, want []int) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

func eq2D(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if diffIdx(a[i], b[i]) >= 0 || len(a[i]) != len(b[i]) {
			return false
		}
	}
	return true
}

func FuzzSMAWKMatchesBrute(f *testing.F) {
	f.Add(int64(1), 8, 8)
	f.Add(int64(2), 1, 33)
	f.Add(int64(3), 64, 5)
	f.Add(int64(4), 96, 96)
	f.Add(int64(5), 2, 1)
	// Adversarial tie seeds: spread-2 integer entries at the dimensions
	// where the reduce stack and interpolation scans change shape.
	f.Add(int64(6), 63, 64)
	f.Add(int64(7), 96, 2)
	// Huge-aspect-ratio seeds: a single long row and a single tall
	// column, where the reduce stack degenerates entirely.
	f.Add(int64(8), 1, 96)
	f.Add(int64(9), 96, 1)
	f.Fuzz(func(t *testing.T, seed int64, rawM, rawN int) {
		m, n := fuzzDim(rawM), fuzzDim(rawN)
		rng := rand.New(rand.NewSource(seed))
		for _, a := range []marray.Matrix{
			marray.RandomMonge(rng, m, n),
			marray.RandomMongeInt(rng, m, n, 3),
			marray.RandomMongeInt(rng, m, n, 2),  // tie-dense
			marray.RandomNearTieMonge(rng, m, n), // near-degenerate 2^-30 (~1e-9) ties
		} {
			want := smawk.RowMinimaBrute(a)
			if i := diffIdx(smawk.RowMinima(a), want); i >= 0 {
				t.Fatalf("seed=%d %dx%d: RowMinima differs from brute at row %d", seed, m, n, i)
			}
			if i := diffIdx(native.RowMinima(nil, a), want); i >= 0 {
				t.Fatalf("seed=%d %dx%d: native.RowMinima differs from brute at row %d", seed, m, n, i)
			}
			if i := diffIdx(smawk.MongeRowMaxima(a), smawk.RowMaximaBrute(a)); i >= 0 {
				t.Fatalf("seed=%d %dx%d: MongeRowMaxima differs from brute at row %d", seed, m, n, i)
			}
			inv := marray.Negate(a) // inverse-Monge: totally monotone for maxima
			if i := diffIdx(smawk.RowMaxima(inv), smawk.RowMaximaBrute(inv)); i >= 0 {
				t.Fatalf("seed=%d %dx%d: RowMaxima differs from brute at row %d", seed, m, n, i)
			}
		}
	})
}

// fuzzTubeDim maps an arbitrary fuzzed int to a tube dimension in
// [1, 24] — the brute oracle is O(p*q*r).
func fuzzTubeDim(x int) int {
	if x < 0 {
		x = -x
	}
	return x%24 + 1
}

func FuzzTubeMaximaMatchesBrute(f *testing.F) {
	f.Add(int64(1), 6, 6, 6)
	f.Add(int64(2), 1, 17, 3)
	f.Add(int64(3), 24, 1, 24)
	f.Add(int64(4), 5, 24, 1)
	f.Add(int64(5), 2, 2, 2)
	f.Fuzz(func(t *testing.T, seed int64, rawP, rawQ, rawR int) {
		p, q, r := fuzzTubeDim(rawP), fuzzTubeDim(rawQ), fuzzTubeDim(rawR)
		rng := rand.New(rand.NewSource(seed))
		// Exact argJ equality against the first-optimum brute scan is the
		// smallest-middle-coordinate tie check; the integer composites
		// make ties constant rather than accidental.
		check := func(what string, gotJ, wantJ [][]int, gotV, wantV [][]float64) {
			t.Helper()
			if !eq2D(gotJ, wantJ) {
				t.Fatalf("seed=%d %dx%dx%d %s: argJ mismatch (tie must pick smallest j)\n got %v\nwant %v",
					seed, p, q, r, what, gotJ, wantJ)
			}
			for i := range wantV {
				for k := range wantV[i] {
					if gotV[i][k] != wantV[i][k] {
						t.Fatalf("seed=%d %dx%dx%d %s: value mismatch at (%d,%d)", seed, p, q, r, what, i, k)
					}
				}
			}
		}
		for name, c := range map[string]marray.Composite{
			"maxima/real": marray.RandomComposite(rng, p, q, r),
			"maxima/int": marray.NewComposite(
				marray.RandomMongeInt(rng, p, q, 3),
				marray.RandomMongeInt(rng, q, r, 3)),
		} {
			gotJ, gotV := smawk.TubeMaxima(c)
			wantJ, wantV := smawk.TubeMaximaBrute(c)
			check(name, gotJ, wantJ, gotV, wantV)
			natJ, natV := native.TubeMaxima(nil, c)
			check(name+"/native", natJ, wantJ, natV, wantV)
		}
	})
}

func FuzzStaircaseRowMinima(f *testing.F) {
	f.Add(int64(1), 8, 8)
	f.Add(int64(2), 1, 50)
	f.Add(int64(3), 50, 1)
	f.Add(int64(4), 96, 96)
	f.Add(int64(5), 40, 9)
	// Adversarial ∞-heavy seeds: wide windows with mostly blocked rows.
	f.Add(int64(6), 64, 63)
	f.Add(int64(7), 96, 24)
	// Huge-aspect ∞-heavy seeds: one long mostly-blocked row, and a tall
	// single column where every row past the boundary answers -1.
	f.Add(int64(8), 1, 96)
	f.Add(int64(9), 96, 1)
	f.Fuzz(func(t *testing.T, seed int64, rawM, rawN int) {
		m, n := fuzzDim(rawM), fuzzDim(rawN)
		rng := rand.New(rand.NewSource(seed))
		heavy := marray.RandomInfHeavyStaircase(rng, m, n)
		for _, a := range []marray.Matrix{
			marray.RandomStaircaseMonge(rng, m, n),
			marray.RandomStaircaseMongeInt(rng, m, n, 3),
			heavy,
			marray.Materialize(heavy), // dense: exercises the native scan path
		} {
			want := smawk.StaircaseRowMinimaBrute(a) // leftmost; -1 on all-blocked rows
			got := smawk.StaircaseRowMinima(a)
			if i := diffIdx(got, want); i >= 0 {
				t.Fatalf("seed=%d %dx%d: StaircaseRowMinima = %d at row %d, brute says %d",
					seed, m, n, got[i], i, want[i])
			}
			nat := native.StaircaseRowMinima(nil, a)
			if i := diffIdx(nat, want); i >= 0 {
				t.Fatalf("seed=%d %dx%d: native.StaircaseRowMinima = %d at row %d, brute says %d",
					seed, m, n, nat[i], i, want[i])
			}
		}
	})
}

// sanity for the generator itself: boundaries must be valid
// (nonincreasing) or the staircase solvers' preconditions would be
// violated silently.
func TestInfHeavyStaircaseIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := marray.RandomInfHeavyStaircase(rng, 20, 30)
	prev := math.MaxInt
	for i := 0; i < 20; i++ {
		b := a.Boundary(i)
		if b > prev {
			t.Fatalf("boundary increased at row %d: %d after %d", i, b, prev)
		}
		prev = b
	}
}
