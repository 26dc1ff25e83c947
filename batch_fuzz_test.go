package monge

import (
	"math/rand"
	"testing"

	"monge/internal/batch"
	"monge/internal/marray"
)

// FuzzBatchMatchesSingle drives one batch.Driver — the per-shape machine
// cache every serving worker runs — with mixed-shape, tie-heavy
// workloads and checks every answer index-for-index against the
// one-query-at-a-time facade path on a fresh machine. Index equality
// (not value equality) is the point: machine reuse must not perturb the
// leftmost tie-breaking rule. The same batch also runs through a
// native-backend driver, making this target a three-way differential:
// batched PRAM, fresh PRAM, and native must all agree on every index.
//
// Run locally with
//
//	go test . -run='^$' -fuzz=FuzzBatchMatchesSingle -fuzztime=30s
func FuzzBatchMatchesSingle(f *testing.F) {
	f.Add(int64(1), 8, 8, 3)
	f.Add(int64(2), 1, 33, 2)
	f.Add(int64(3), 64, 5, 1)
	f.Add(int64(4), 12, 40, 4)
	f.Add(int64(5), 2, 1, 2)
	// Adversarial tie shapes at the block and reduce-stack boundaries.
	f.Add(int64(6), 63, 64, 2)
	f.Add(int64(7), 64, 63, 2)
	// Huge-aspect-ratio shapes: single-row and single-column queries mixed
	// into multi-query batches, where per-query machine sizing degenerates.
	f.Add(int64(8), 64, 1, 2)
	f.Add(int64(9), 1, 64, 2)
	f.Fuzz(func(t *testing.T, seed int64, rawM, rawN, rawK int) {
		clamp := func(x, mod int) int {
			if x < 0 {
				x = -x
			}
			return x%mod + 1
		}
		m, n, k := clamp(rawM, 64), clamp(rawN, 64), clamp(rawK, 4)
		rng := rand.New(rand.NewSource(seed))
		var as []Matrix
		for i := 0; i < k; i++ {
			as = append(as, marray.RandomMonge(rng, m, n))
			as = append(as, marray.RandomMongeInt(rng, m, n, 3))
			// A second shape in the same batch exercises machine switching.
			as = append(as, marray.RandomMongeInt(rng, n, m, 3))
			// Near-degenerate ties: 1e-9 perturbations punish any
			// epsilon-based comparison shortcut with an index mismatch.
			as = append(as, marray.RandomNearTieMonge(rng, m, n))
		}
		d := batch.New(CRCW)
		defer d.Close()
		nd := batch.NewWithBackend(CRCW, BackendNative)
		defer nd.Close()
		got := make([][]int, len(as))
		ngot := make([][]int, len(as))
		if err := catchInto(func() {
			for i, a := range as {
				got[i] = d.RowMinima(a)
			}
		}); err != nil {
			t.Fatalf("batch: %v", err)
		}
		if err := catchInto(func() {
			for i, a := range as {
				ngot[i] = nd.RowMinima(a)
			}
		}); err != nil {
			t.Fatalf("native batch: %v", err)
		}
		for i, a := range as {
			want, err := RowMinimaPRAM(NewPRAM(CRCW, a.Cols()), a)
			if err != nil {
				t.Fatalf("single query %d: %v", i, err)
			}
			for r := range want {
				if got[i][r] != want[r] {
					t.Fatalf("seed=%d query %d row %d: batch %d, single %d",
						seed, i, r, got[i][r], want[r])
				}
				if ngot[i][r] != want[r] {
					t.Fatalf("seed=%d query %d row %d: native %d, single %d",
						seed, i, r, ngot[i][r], want[r])
				}
			}
		}
	})
}
