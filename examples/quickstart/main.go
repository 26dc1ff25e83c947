// Quickstart: define a Monge array implicitly, search it sequentially with
// SMAWK, then run the same search on a simulated CRCW PRAM and read the
// charged parallel-time counters.
package main

import (
	"fmt"

	"monge"
)

func main() {
	// a[i][j] = (i - j)^2 + j is Monge: convex in (i - j) plus a column
	// offset. Entries are computed on demand -- nothing is materialized.
	n := 16
	a := monge.NewFunc(n, n, func(i, j int) float64 {
		d := float64(i - j)
		return d*d + float64(j)
	})
	fmt.Println("IsMonge:", monge.IsMonge(a))

	// Sequential: Theta(m+n) row minima via SMAWK. Every entry point
	// screens its input with a cheap sampled Monge validator and returns
	// typed errors (monge.ErrNotMonge etc.).
	idx, err := monge.RowMinima(a)
	if err != nil {
		panic(err)
	}
	fmt.Println("sequential row minima (leftmost argmin per row):")
	for i, j := range idx {
		fmt.Printf("  row %2d -> col %2d (value %g)\n", i, j, a.At(i, j))
	}

	// Parallel: the same search on a simulated n-processor CRCW PRAM
	// (Table 1.1 of the paper: O(lg n) time).
	mach := monge.NewPRAM(monge.CRCW, n)
	pidx, err := monge.RowMinimaPRAM(mach, a)
	if err != nil {
		panic(err)
	}
	same := true
	for i := range idx {
		if idx[i] != pidx[i] {
			same = false
		}
	}
	fmt.Printf("\nCRCW PRAM agrees with SMAWK: %v\n", same)
	fmt.Printf("charged parallel time: %d steps with %d processors (work %d)\n",
		mach.Time(), mach.Procs(), mach.Work())
}
