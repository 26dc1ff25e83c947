package pram

import (
	"testing"

	"monge/internal/obs"
)

// A freed array must be recycled by the next NewArray of the same element
// type that fits, and the recycled storage must be indistinguishable from
// a fresh allocation: zero values, working conflict detection.
func TestArenaRecyclesAndZeroes(t *testing.T) {
	m := New(CRCW, 8)
	a := NewArray[int](m, 8)
	m.Step(8, func(id int) { a.Write(id, id, id+1) })
	a.Free()

	b := NewArray[int](m, 6)
	for i := 0; i < b.Len(); i++ {
		if got := b.Read(i); got != 0 {
			t.Fatalf("recycled array not zeroed at %d: %d", i, got)
		}
	}
	// The recycled array must behave like a fresh one for conflict
	// bookkeeping too: a priority-CRCW conflict resolves to the lowest pid.
	m.Step(6, func(id int) { b.Write(id, 0, id+10) })
	if got := b.Read(0); got != 10 {
		t.Fatalf("priority resolution on recycled array: got %d, want 10", got)
	}
}

func TestArenaHitMissCounters(t *testing.T) {
	o := obs.NewObserver()
	m := New(CREW, 4)
	m.SetObserver(o)
	a := NewArray[float64](m, 16)
	a.Free()
	b := NewArray[float64](m, 16) // hit
	c := NewArray[float64](m, 64) // miss: nothing retained that large
	_, _ = b, c
	s := o.Site("pram")
	if s.Load(obs.ArenaHits) != 1 {
		t.Fatalf("ArenaHits = %d, want 1", s.Load(obs.ArenaHits))
	}
	if s.Load(obs.ArenaMisses) < 1 {
		t.Fatalf("ArenaMisses = %d, want >= 1", s.Load(obs.ArenaMisses))
	}
	// 16 floats + 16 stamps (int64) + 16 owners (int32) = 16*(8+8+4).
	if want := int64(16 * 20); s.Load(obs.BytesRecycled) != want {
		t.Fatalf("BytesRecycled = %d, want %d", s.Load(obs.BytesRecycled), want)
	}
}

func TestArenaResetReleases(t *testing.T) {
	m := New(CRCW, 4)
	NewArray[int](m, 32).Free()
	m.Reset()
	o := obs.NewObserver()
	m.SetObserver(o)
	NewArray[int](m, 32)
	if s := o.Site("pram"); s.Load(obs.ArenaHits) != 0 {
		t.Fatalf("arena survived Reset: %d hits", s.Load(obs.ArenaHits))
	}
}

// A dirty array (buffered writes in an open step) must refuse recycling:
// Free during a step body is a misuse the arena absorbs by dropping.
func TestArenaFreeDirtyDropped(t *testing.T) {
	m := New(CRCW, 4)
	a := NewArray[int](m, 4)
	m.Step(1, func(id int) {
		a.Write(id, 0, 7)
		a.Free() // dirty: must NOT enter the free list
	})
	if got := a.Read(0); got != 7 {
		t.Fatalf("write lost after in-step Free: %d", got)
	}
	b := NewArray[int](m, 4)
	o := obs.NewObserver() // counters unused; just exercise the path
	_ = o
	if b == a {
		t.Fatal("dirty array was recycled")
	}
}

// Child machines recycled across ParallelDo branches must keep the
// accounting contract: counters identical to the non-recycled semantics.
func TestChildRecyclingAccounting(t *testing.T) {
	run := func() (int64, int64) {
		m := New(CRCW, 8)
		for round := 0; round < 3; round++ {
			m.ParallelDo([]int{4, 4}, func(b int, sub *Machine) {
				arr := NewArray[int](sub, 4)
				sub.Step(4, func(id int) { arr.Write(id, id, id) })
				arr.Free()
			})
		}
		return m.Time(), m.Work()
	}
	t1, w1 := run()
	t2, w2 := run()
	if t1 != t2 || w1 != w2 {
		t.Fatalf("recycled-child accounting differs: (%d,%d) vs (%d,%d)", t1, w1, t2, w2)
	}
	if t1 == 0 || w1 == 0 {
		t.Fatal("no cost charged")
	}
}
