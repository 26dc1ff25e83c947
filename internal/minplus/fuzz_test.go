package minplus

import (
	"math"
	"math/rand"
	"testing"

	"monge/internal/batch"
	"monge/internal/marray"
)

// FuzzMinPlusMatchesNaive drives the (min,+) engine with hostile factor
// families — tie-dense integer Monge, 2^-30 (~1e-9) near-tie
// perturbations, inf-heavy staircases, and huge-aspect shapes down to
// 1×n and n×1 — and checks every product four ways: the naive O(mqr)
// oracle, the PRAM backend (one kernel query per row), the native
// backend, and a width-4 native engine must agree on every value AND
// every witness index (leftmost ties, -1 on blocked entries). On the
// native engines the fully finite families solve their interior rows
// by witness windows, and a width-4 engine cuts products of 32 or more
// rows into more row blocks, so more rows go to the kernel.
//
// Run locally with
//
//	go test ./internal/minplus -run='^$' -fuzz=FuzzMinPlusMatchesNaive -fuzztime=30s
func FuzzMinPlusMatchesNaive(f *testing.F) {
	f.Add(int64(1), 8, 8, 8, 0)
	f.Add(int64(2), 5, 17, 9, 1)
	f.Add(int64(3), 12, 7, 20, 2)
	f.Add(int64(4), 9, 9, 9, 3)
	// Huge-aspect shapes: row-vector, column-vector, and unit inner
	// dimension, where slice shapes degenerate.
	f.Add(int64(5), 1, 48, 13, 0)
	f.Add(int64(6), 21, 48, 1, 2)
	f.Add(int64(7), 16, 1, 16, 1)
	// Boundary shapes at the dense-scan and block cutoffs.
	f.Add(int64(8), 31, 32, 33, 3)
	f.Fuzz(func(t *testing.T, seed int64, rawM, rawQ, rawR, rawFam int) {
		clamp := func(x, mod int) int {
			if x < 0 {
				x = -x
			}
			return x%mod + 1
		}
		m, q, r := clamp(rawM, 48), clamp(rawQ, 48), clamp(rawR, 48)
		fam := clamp(rawFam, 4) - 1
		rng := rand.New(rand.NewSource(seed))
		var a, b marray.Matrix
		switch fam {
		case 0: // plain Monge, real-valued
			a, b = marray.RandomMonge(rng, m, q), marray.RandomMonge(rng, q, r)
		case 1: // tie-dense near-tie factors
			a, b = marray.RandomNearTieMonge(rng, m, q), marray.RandomNearTieMonge(rng, q, r)
		case 2: // staircase second factor, integer-tie first
			a, b = marray.RandomMongeInt(rng, m, q, 2), marray.RandomStaircaseMongeInt(rng, q, r, 2)
		default: // inf-heavy staircases on both sides
			a = marray.Materialize(marray.RandomInfHeavyStaircase(rng, m, q))
			b = marray.RandomInfHeavyStaircase(rng, q, r)
		}
		want, wit := MultiplyNaive(a, b)
		blocks := nativeEngine(4)
		for _, bk := range []struct {
			name string
			e    *Engine
		}{{"pram", New(batch.BackendPRAM)}, {"native", New(batch.BackendNative)}, {"native-w4-blocks", blocks}} {
			e := bk.e
			p := e.Multiply(a, b)
			for i := 0; i < m; i++ {
				for k := 0; k < r; k++ {
					gv, wv := p.At(i, k), want.At(i, k)
					if gv != wv && !(math.IsInf(gv, 1) && math.IsInf(wv, 1)) {
						t.Fatalf("seed=%d fam=%d %s: C[%d][%d]=%g, naive %g", seed, fam, bk.name, i, k, gv, wv)
					}
					if gj, wj := p.Witness(i, k), wit[i][k]; gj != wj {
						t.Fatalf("seed=%d fam=%d %s: witness[%d][%d]=%d, naive %d", seed, fam, bk.name, i, k, gj, wj)
					}
				}
			}
			e.Close()
		}
		blocks.Driver().Close()
	})
}
