package smawk

import (
	"math/rand"
	"testing"

	"monge/internal/marray"
)

func TestRowMinimaDCMatchesSMAWK(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 100; trial++ {
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		a := marray.RandomMonge(rng, m, n)
		got := RowMinimaDC(a)
		want := RowMinima(a)
		if !eqInts(got, want) {
			t.Fatalf("trial %d (%dx%d): DC %v vs SMAWK %v", trial, m, n, got, want)
		}
	}
}

func TestRowMinimaDCTies(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 150; trial++ {
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
		a := intMonge(rng, m, n)
		if !marray.IsMonge(a) {
			continue
		}
		if got, want := RowMinimaDC(a), RowMinimaBrute(a); !eqInts(got, want) {
			t.Fatalf("trial %d: %v vs %v", trial, got, want)
		}
	}
}

func TestRowMinimaDCEmpty(t *testing.T) {
	if got := RowMinimaDC(marray.NewDense(0, 0)); len(got) != 0 {
		t.Fatal("empty input")
	}
}

// BenchmarkSeqBaselines contrasts SMAWK's Theta(m+n) with the divide-and-
// conquer O((m+n) lg m) and the brute force Theta(mn), the three
// sequential reference points of Table 1.1.
func BenchmarkSeqBaselines(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	n := 2048
	a := marray.RandomMonge(rng, n, n)
	b.Run("smawk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RowMinima(a)
		}
	})
	b.Run("divide-conquer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RowMinimaDC(a)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RowMinimaBrute(a)
		}
	})
}
