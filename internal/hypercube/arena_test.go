package hypercube

import (
	"testing"

	"monge/internal/obs"
)

// A freed Vec's storage must be recycled by the next checkout of the same
// element type, and a zero-semantics checkout (NewVec with nil init) must
// come back cleared.
func TestVecArenaRecyclesAndZeroes(t *testing.T) {
	m := New(Cube, 3)
	v := NewVec(m, func(p int) int { return p + 1 })
	v.Free()
	w := NewVec[int](m, nil)
	for p := 0; p < 8; p++ {
		if got := w.Get(p); got != 0 {
			t.Fatalf("recycled Vec not zeroed at %d: %d", p, got)
		}
	}
}

func TestVecArenaHitMissCounters(t *testing.T) {
	o := obs.NewObserver()
	m := New(Cube, 3)
	m.SetObserver(o)
	NewVec(m, func(p int) float64 { return float64(p) }).Free()
	NewVec[float64](m, nil)               // hit: 8 floats recycled
	NewVec(m, func(int) int { return 0 }) // miss: no int slice retained
	s := o.Site("hypercube")
	if s.Load(obs.ArenaHits) != 1 {
		t.Fatalf("ArenaHits = %d, want 1", s.Load(obs.ArenaHits))
	}
	if s.Load(obs.ArenaMisses) < 1 {
		t.Fatalf("ArenaMisses = %d, want >= 1", s.Load(obs.ArenaMisses))
	}
	if want := int64(8 * 8); s.Load(obs.BytesRecycled) != want {
		t.Fatalf("BytesRecycled = %d, want %d", s.Load(obs.BytesRecycled), want)
	}
}

func TestVecArenaResetReleases(t *testing.T) {
	m := New(Cube, 3)
	NewVec(m, func(p int) int { return p }).Free()
	m.Reset()
	o := obs.NewObserver()
	m.SetObserver(o)
	NewVec[int](m, nil)
	if s := o.Site("hypercube"); s.Load(obs.ArenaHits) != 0 {
		t.Fatalf("arena survived Reset: %d hits", s.Load(obs.ArenaHits))
	}
}

// Scan results must be identical whether or not the machine's buffers have
// been through the free list: a second identical run on a warm arena is
// the regression surface for stale-cell bugs.
func TestVecArenaWarmRunMatchesCold(t *testing.T) {
	run := func(m *Machine) []int {
		v := NewVec(m, func(p int) int { return p + 1 })
		tot := Scan(m, v, func(a, b int) int { return a + b })
		out := v.Snapshot()
		if got := tot.Get(0); got != 8*9/2 {
			t.Fatalf("total = %d, want 36", got)
		}
		tot.Free()
		v.Free()
		return out
	}
	m := New(Cube, 3)
	cold := run(m)
	warm := run(m)
	for p := range cold {
		if cold[p] != warm[p] {
			t.Fatalf("warm run diverged at %d: %d vs %d", p, cold[p], warm[p])
		}
	}
}

// Child machines recycled across ParallelDo rounds must keep the accounting
// contract: counters identical run to run.
func TestVecArenaChildRecyclingAccounting(t *testing.T) {
	run := func() (int64, int64) {
		m := New(Cube, 4)
		for round := 0; round < 3; round++ {
			m.ParallelDo([]int{2, 2, 2, 2}, func(c int, sub *Machine) {
				v := NewVec(sub, func(p int) int { return p })
				Scan(sub, v, func(a, b int) int { return a + b }).Free()
				v.Free()
			})
		}
		return m.Time(), m.Comm()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("recycled-child accounting differs: (%d,%d) vs (%d,%d)", t1, c1, t2, c2)
	}
	if t1 == 0 || c1 == 0 {
		t.Fatal("no cost charged")
	}
}
