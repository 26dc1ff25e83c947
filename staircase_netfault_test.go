package monge

// Constant-degree network conformance for the staircase search (Theorem
// 3.3 machinery): the cube-connected-cycles and shuffle-exchange
// emulations must return exactly the CRCW PRAM result — leftmost minima,
// -1 on fully blocked rows — at conformance sizes, both fault-free and
// under link/stall/timeout injection. Only the charged counters may move
// under faults.

import (
	"fmt"
	"math/rand"
	"testing"

	"monge/internal/faults"
	"monge/internal/marray"
)

func TestStaircaseNetworkFaultConformance(t *testing.T) {
	const injSeed = 271828
	for _, n := range []int{64, 128} {
		for _, rate := range []float64{0, 0.05} {
			for _, nk := range []struct {
				name string
				kind NetworkKind
			}{{"ccc", CCC}, {"shuffle-exchange", ShuffleExchange}} {
				t.Run(fmt.Sprintf("%s/n=%d/rate=%g", nk.name, n, rate), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)))
					a := marray.RandomStaircaseMongeInt(rng, n, n, 3) // tie-rich
					want, err := StaircaseRowMinimaPRAM(NewPRAM(CRCW, n), a)
					if err != nil {
						t.Fatal(err)
					}

					v, w, f := netInputs(a)
					bound := make([]int, n)
					for i := range bound {
						bound[i] = marray.BoundaryOf(a, i)
					}
					inj := faults.New(injSeed, rate)
					mach := NewNetworkFor(nk.kind, n, n)
					mach.SetFaults(inj)
					got, err := StaircaseRowMinimaHypercube(mach, v, bound, w, f)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("row %d: %s says col %d, CRCW says %d", i, nk.name, got[i], want[i])
						}
					}
					if rate > 0 && faultedStats(inj) == 0 {
						t.Fatal("rate 0.05 delivered no faults; the run was not actually stressed")
					}
					if rate == 0 && faultedStats(inj) != 0 {
						t.Fatal("rate 0 delivered faults")
					}
				})
			}
		}
	}
}
