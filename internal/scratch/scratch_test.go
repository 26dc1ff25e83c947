package scratch

import "testing"

func TestArenaStackDiscipline(t *testing.T) {
	var a Arena[int]
	outer := a.Alloc(10)
	for i := range outer {
		outer[i] = i
	}
	m := a.Mark()
	inner := a.Alloc(2000) // forces a second block
	for i := range inner {
		inner[i] = -1
	}
	a.Rewind(m)
	again := a.Alloc(5)
	for _, v := range again {
		if v != 0 {
			t.Fatalf("Alloc after Rewind not zeroed: %v", again)
		}
	}
	for i, v := range outer {
		if v != i {
			t.Fatalf("outer allocation clobbered at %d: %d", i, v)
		}
	}
}

func TestArenaCapExact(t *testing.T) {
	var a Arena[int]
	s := a.Alloc(7)
	if cap(s) != 7 {
		t.Fatalf("cap = %d, want 7", cap(s))
	}
	t2 := a.Alloc(3)
	s = append(s, 99) // must reallocate, not overlap t2
	s[len(s)-1] = 42
	for _, v := range t2 {
		if v != 0 {
			t.Fatalf("append bled into neighbour: %v", t2)
		}
	}
}

func TestArenaSteadyStateNoAlloc(t *testing.T) {
	var a Arena[int]
	run := func() {
		m := a.Mark()
		for i := 0; i < 20; i++ {
			s := a.Alloc(100)
			s[0] = i
		}
		a.Rewind(m)
	}
	run() // warm-up grows the blocks
	run()
	allocs := testing.AllocsPerRun(50, run)
	if allocs != 0 {
		t.Fatalf("steady-state Arena.Alloc allocates: %v allocs/run", allocs)
	}
}

func TestFreeListRecycles(t *testing.T) {
	var f FreeList[int]
	s, hit := f.Get(8)
	if hit {
		t.Fatal("first Get reported a hit")
	}
	f.Put(s)
	s2, hit := f.Get(4)
	if !hit {
		t.Fatal("Get after Put missed")
	}
	if len(s2) != 4 || cap(s2) < 8 {
		t.Fatalf("recycled slice len=%d cap=%d", len(s2), cap(s2))
	}
}

func TestFreeListTooSmallIsMiss(t *testing.T) {
	var f FreeList[byte]
	s, _ := f.Get(4)
	f.Put(s)
	_, hit := f.Get(1024)
	if hit {
		t.Fatal("undersized slice reported as hit")
	}
	if f.Len() != 1 {
		t.Fatalf("undersized slice evicted: len=%d", f.Len())
	}
}
