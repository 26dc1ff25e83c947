package core

import (
	"math/rand"
	"testing"

	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/smawk"
)

func TestTubeMaximaMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 40; trial++ {
		p, q, r := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		c := marray.RandomComposite(rng, p, q, r)
		wantJ, wantV := smawk.TubeMaxima(c)
		for _, mach := range machines(p * (q + r)) {
			gotJ, gotV := TubeMaxima(mach, c)
			for i := 0; i < p; i++ {
				if !eqInts(gotJ[i], wantJ[i]) {
					t.Fatalf("trial %d (%v) slice %d: got %v want %v",
						trial, mach.Mode(), i, gotJ[i], wantJ[i])
				}
				for k := 0; k < r; k++ {
					if gotV[i][k] != wantV[i][k] {
						t.Fatalf("value mismatch at (%d,%d)", i, k)
					}
				}
			}
		}
	}
}

// TestTubeMinimaMatchesSequential checks the reduction that serves tube
// minima of a composite with inverse-Monge factors on the PRAM: they are
// the tube maxima of the composite of the negated factors.
func TestTubeMinimaMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		p, q, r := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		neg := marray.NewComposite(
			marray.Negate(marray.RandomInverseMonge(rng, p, q)),
			marray.Negate(marray.RandomInverseMonge(rng, q, r)),
		)
		wantJ, _ := smawk.TubeMaximaBrute(neg)
		mach := pram.New(pram.CRCW, p*(q+r))
		gotJ, _ := TubeMaxima(mach, neg)
		for i := 0; i < p; i++ {
			if !eqInts(gotJ[i], wantJ[i]) {
				t.Fatalf("trial %d slice %d: got %v want %v", trial, i, gotJ[i], wantJ[i])
			}
		}
	}
}

func TestTubeMaximaTies(t *testing.T) {
	// All-zero factors: every j ties; smallest j must win.
	c := marray.NewComposite(marray.NewDense(3, 5), marray.NewDense(5, 4))
	mach := pram.New(pram.CREW, 3*9)
	argJ, _ := TubeMaxima(mach, c)
	for i := range argJ {
		for k := range argJ[i] {
			if argJ[i][k] != 0 {
				t.Fatalf("tie must pick smallest j, got %d", argJ[i][k])
			}
		}
	}
}

// TestTubeCREWLogTime checks the Table 1.3 CREW shape: time / lg n bounded
// as n grows (our processor groups give each slice q + r processors).
func TestTubeCREWLogTime(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	timeFor := func(n int) float64 {
		c := marray.RandomComposite(rng, n, n, n)
		mach := pram.New(pram.CREW, n*2*n)
		TubeMaxima(mach, c)
		return float64(mach.Time()) / float64(pram.Log2Ceil(n))
	}
	r64, r256 := timeFor(64), timeFor(256)
	if r256 > 3*r64 {
		t.Fatalf("tube CREW time/lg n grows too fast: %f -> %f", r64, r256)
	}
}
