package smawk

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lessTotal is the scalar reference order for minima, written with
// explicit branches and no bit tricks: NaN sorts above everything (it
// never wins a minimum), -0.0 equals +0.0, and everything else is <.
// The kernels' documented contract is "leftmost minimum under this
// order"; on NaN-free inputs it coincides with a plain < scan.
func lessTotal(a, b float64) bool {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	if an || bn {
		return !an && bn
	}
	return a < b
}

// refScan is the scalar reference scan: leftmost index never displaced
// except by a strictly better entry.
func refScan(row []float64, better func(a, b float64) bool) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if better(row[j], row[best]) {
			best = j
		}
	}
	return best
}

func refArgMin(row []float64) int { return refScan(row, lessTotal) }

// greaterTotal is the scalar reference order for maxima: NaN sorts
// below everything (it never wins a maximum), mirroring lessTotal.
func greaterTotal(a, b float64) bool {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	if an || bn {
		return !an && bn
	}
	return a > b
}

func refArgMax(row []float64) int { return refScan(row, greaterTotal) }

func refArgMinFinite(row []float64) int {
	j := refArgMin(row)
	if math.IsInf(row[j], 1) {
		return -1
	}
	return j
}

// scanLens covers every code path: the short-row scalar loop (< 8),
// exact multiples of the 4-wide unroll, each tail length, and long
// rows.
var scanLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 31, 32, 33, 63, 64, 100, 257, 1024}

// specials are the values the satellite task names: ±Inf, -0.0, NaN,
// and near-tie magnitudes around exact integer ties.
var specials = []float64{
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.NaN(),
	1, 1 + 1e-9, 1 - 1e-9, -1, -1 - 1e-9, 2, -2,
}

// scanRows generates adversarial rows of length n: all-ties, near-tie
// (integer base split by 1e-9 deltas), special-value-dense, and mixes
// with leading/trailing NaN and Inf runs.
func scanRows(rng *rand.Rand, n int) [][]float64 {
	rows := [][]float64{make([]float64, n)} // all zero: the total tie
	allSeven := make([]float64, n)
	nearTie := make([]float64, n)
	specialMix := make([]float64, n)
	negZero := make([]float64, n)
	for j := 0; j < n; j++ {
		allSeven[j] = 7
		nearTie[j] = float64(3+rng.Intn(2)) + 1e-9*float64(rng.Intn(3))
		specialMix[j] = specials[rng.Intn(len(specials))]
		if rng.Intn(2) == 0 {
			negZero[j] = math.Copysign(0, -1)
		}
	}
	rows = append(rows, allSeven, nearTie, specialMix, negZero)
	leadNaN := append([]float64{math.NaN()}, nearTie[:n-1]...)
	allNaN := make([]float64, n)
	allInf := make([]float64, n)
	for j := range allNaN {
		allNaN[j] = math.NaN()
		allInf[j] = math.Inf(1)
	}
	rows = append(rows, leadNaN, allNaN, allInf)
	random := make([]float64, n)
	for j := range random {
		random[j] = rng.NormFloat64() * 100
	}
	rows = append(rows, random)
	return rows
}

// TestScanKernelsMatchScalarReference pins all three kernels against
// the scalar reference on every adversarial family and length.
func TestScanKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range scanLens {
		for fi, row := range scanRows(rng, n) {
			if got, want := argMin(row), refArgMin(row); got != want {
				t.Fatalf("argMin(n=%d, family=%d) = %d, want %d (row=%v)", n, fi, got, want, clip(row))
			}
			if got, want := argMax(row), refArgMax(row); got != want {
				t.Fatalf("argMax(n=%d, family=%d) = %d, want %d (row=%v)", n, fi, got, want, clip(row))
			}
			if got, want := argMinFinite(row), refArgMinFinite(row); got != want {
				t.Fatalf("argMinFinite(n=%d, family=%d) = %d, want %d (row=%v)", n, fi, got, want, clip(row))
			}
		}
	}
}

// TestArgMinAgreesWithBruteOnNaNFreeInput pins the documented
// coincidence: without NaN the kernel order is the < order, so argMin
// must equal the classic brute scan used as the repository's oracle.
func TestArgMinAgreesWithBruteOnNaNFreeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range scanLens {
		for trial := 0; trial < 20; trial++ {
			row := make([]float64, n)
			for j := range row {
				switch rng.Intn(5) {
				case 0:
					row[j] = float64(rng.Intn(3)) // exact ties
				case 1:
					row[j] = math.Inf(1)
				case 2:
					row[j] = math.Copysign(0, -1)
				default:
					row[j] = float64(rng.Intn(4)) + 1e-9*float64(rng.Intn(3))
				}
			}
			want := 0
			for j := 1; j < n; j++ {
				if row[j] < row[want] {
					want = j
				}
			}
			if got := argMin(row); got != want {
				t.Fatalf("argMin(n=%d) = %d, want brute %d (row=%v)", n, got, want, clip(row))
			}
		}
	}
}

// TestRank64 pins the predecessor-rank primitive on exhaustive small
// words and random wide ones.
func TestRank64(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		w := rng.Uint64()
		pos := uint(rng.Intn(64))
		want := 0
		for b := uint(0); b <= pos; b++ {
			if w&(1<<b) != 0 {
				want++
			}
		}
		if got := Rank64(w, pos); got != want {
			t.Fatalf("Rank64(%#x, %d) = %d, want %d", w, pos, got, want)
		}
	}
}

// FuzzArgMinKernels feeds arbitrary byte-derived float64 rows — any
// bit pattern, including every NaN payload — through all three kernels
// against the scalar reference.
func FuzzArgMinKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2, 0, 0, 0, 0, 0, 0xf0, 0x3f, 3, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		row := make([]float64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			row = append(row, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		if got, want := argMin(row), refArgMin(row); got != want {
			t.Fatalf("argMin = %d, want %d (row=%v)", got, want, clip(row))
		}
		if got, want := argMax(row), refArgMax(row); got != want {
			t.Fatalf("argMax = %d, want %d (row=%v)", got, want, clip(row))
		}
		if got, want := argMinFinite(row), refArgMinFinite(row); got != want {
			t.Fatalf("argMinFinite = %d, want %d (row=%v)", got, want, clip(row))
		}
	})
}

func clip(row []float64) []float64 {
	if len(row) > 16 {
		return row[:16]
	}
	return row
}

// twoPassArgMin is the PR 8 dense-scan kernel kept verbatim as the
// benchmark baseline: a value pass with the min builtin, then an index
// pass stopping at the first equal entry.
func twoPassArgMin(row []float64) int {
	bv := row[0]
	for _, v := range row[1:] {
		bv = min(bv, v)
	}
	for j, v := range row {
		if v == bv {
			return j
		}
	}
	return 0
}

// branchyArgMax is the scalar compare-and-branch argmax loop that
// argMax is priced against.
func branchyArgMax(row []float64) int {
	best, bv := 0, row[0]
	for j, v := range row {
		if v > bv {
			best, bv = j, v
		}
	}
	return best
}

// BenchmarkScanKernels is the before/after table for EXPERIMENTS.md
// ("Kernel microbenchmarks"): the PR 8 scalar loops versus the
// branchless 4-wide kernels. Each iteration scans a different row from
// a 16-row rotation — a single fixed row would let the branch
// predictor memorize the scalar loops' decision sequence, a luxury the
// real scans (a fresh row per call) never get. Nothing gates it; it is
// a tool for local study.
func BenchmarkScanKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rot = 16
	for _, n := range []int{32, 256, 4096} {
		rows := make([][]float64, rot)
		for r := range rows {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(8)) + 1e-9*float64(rng.Intn(3))
			}
			rows[r] = row
		}
		sink := 0
		b.Run(fmt.Sprintf("argmin-twopass/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += twoPassArgMin(rows[i%rot])
			}
		})
		b.Run(fmt.Sprintf("argmin-branchless/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += argMin(rows[i%rot])
			}
		})
		b.Run(fmt.Sprintf("argmax-branchy/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += branchyArgMax(rows[i%rot])
			}
		})
		b.Run(fmt.Sprintf("argmax-branchless/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += argMax(rows[i%rot])
			}
		})
		// Hostile family: ascending drift plus noise makes "new maximum
		// found" an unpredictable ~coin flip per element, the worst case
		// for the branchy loop and a no-op for the branchless one.
		hostile := make([][]float64, rot)
		for r := range hostile {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(j)*0.5 + rng.NormFloat64()*8
			}
			hostile[r] = row
		}
		b.Run(fmt.Sprintf("argmax-branchy-hostile/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += branchyArgMax(hostile[i%rot])
			}
		})
		b.Run(fmt.Sprintf("argmax-branchless-hostile/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += argMax(hostile[i%rot])
			}
		})
		if sink == math.MinInt {
			b.Fatal("impossible")
		}
	}
}
