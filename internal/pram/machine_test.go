package pram

import (
	"errors"
	"math/rand"
	"testing"

	"monge/internal/merr"
)

func TestModeString(t *testing.T) {
	if CREW.String() != "CREW" || CRCW.String() != "CRCW" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode formatting wrong")
	}
}

func TestStepBuffersWrites(t *testing.T) {
	m := New(CREW, 4)
	a := NewArray[int](m, 8)
	for i := 0; i < 8; i++ {
		a.Set(i, i)
	}
	// Classic shift: every processor reads its left neighbour and writes
	// itself; buffered writes must make all reads see the pre-step state.
	m.Step(8, func(id int) {
		if id > 0 {
			a.Write(id, id, a.Read(id-1))
		}
	})
	want := []int{0, 0, 1, 2, 3, 4, 5, 6}
	got := a.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift result %v, want %v", got, want)
		}
	}
}

func TestTimeAccountingBrent(t *testing.T) {
	m := New(CREW, 4)
	m.Step(16, func(int) {})       // ceil(16/4) = 4
	m.Step(3, func(int) {})        // ceil(3/4) = 1
	m.StepCost(8, 5, func(int) {}) // 5 * ceil(8/4) = 10
	if m.Time() != 15 {
		t.Fatalf("Time = %d, want 15", m.Time())
	}
	if m.Steps() != 3 {
		t.Fatalf("Steps = %d, want 3", m.Steps())
	}
	if m.Work() != 16+3+40 {
		t.Fatalf("Work = %d, want %d", m.Work(), 16+3+40)
	}
	m.Reset()
	if m.Time() != 0 || m.Steps() != 0 || m.Work() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestStepZeroOrNegativeProcs(t *testing.T) {
	m := New(CRCW, 0) // clamped to 1
	if m.Procs() != 1 {
		t.Fatalf("procs = %d, want 1", m.Procs())
	}
	m.Step(0, func(int) { t.Fatal("body must not run for n <= 0") })
	if m.Steps() != 0 {
		t.Fatal("empty step should not count")
	}
}

func TestCREWConflictDetected(t *testing.T) {
	m := New(CREW, 4)
	a := NewArray[int](m, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected CREW conflict throw")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panic value %T, want a merr failure", r)
		}
		if !errors.Is(err, merr.ErrWriteConflict) {
			t.Fatalf("thrown error %v does not match merr.ErrWriteConflict", err)
		}
		var ce *ConflictError
		if !errors.As(err, &ce) {
			t.Fatalf("thrown error %T does not unwrap to *ConflictError", r)
		}
		if ce.Index != 2 {
			t.Fatalf("conflict index = %d, want 2", ce.Index)
		}
		if ce.Error() == "" {
			t.Fatal("empty error text")
		}
	}()
	m.Step(4, func(id int) {
		a.Write(id, 2, id) // everyone writes cell 2
	})
}

func TestCREWSameProcessorRewriteAllowed(t *testing.T) {
	m := New(CREW, 4)
	a := NewArray[int](m, 4)
	m.Step(4, func(id int) {
		a.Write(id, id, 1)
		a.Write(id, id, 2) // same processor, same cell: program order wins
	})
	if a.Read(0) != 2 {
		t.Fatalf("later same-pid write must win, got %d", a.Read(0))
	}
}

func TestCRCWPriorityResolution(t *testing.T) {
	m := New(CRCW, 8)
	a := NewArray[int](m, 1)
	m.Step(64, func(id int) {
		a.Write(id, 0, 1000+id)
	})
	if a.Read(0) != 1000 {
		t.Fatalf("priority CRCW should keep pid 0's value, got %d", a.Read(0))
	}
}

func TestCRCWPriorityWithSamePidRewrites(t *testing.T) {
	m := New(CRCW, 8)
	a := NewArray[int](m, 1)
	m.Step(16, func(id int) {
		a.Write(id, 0, id)
		a.Write(id, 0, 100+id)
	})
	if a.Read(0) != 100 {
		t.Fatalf("want pid 0's last write (100), got %d", a.Read(0))
	}
}

func TestArrayFillSetSnapshot(t *testing.T) {
	m := New(CREW, 2)
	a := NewArray[float64](m, 3)
	a.Fill([]float64{1, 2, 3})
	a.Set(1, 9)
	s := a.Snapshot()
	if s[0] != 1 || s[1] != 9 || s[2] != 3 {
		t.Fatalf("snapshot %v", s)
	}
	s[0] = 77
	if a.Read(0) == 77 {
		t.Fatal("snapshot must be a copy")
	}
	if a.Len() != 3 {
		t.Fatal("len wrong")
	}
}

func TestManyStepsDirtyTracking(t *testing.T) {
	// Allocating many temporaries must not slow later steps (dirty list
	// only). This is a functional check that flushing still works after
	// temporaries are abandoned.
	m := New(CRCW, 8)
	for k := 0; k < 50; k++ {
		tmp := NewArray[int](m, 16)
		m.Step(16, func(id int) { tmp.Write(id, id, id*k) })
		if tmp.Read(3) != 3*k {
			t.Fatalf("iteration %d: flush failed", k)
		}
	}
}

func TestParallelForLargeN(t *testing.T) {
	m := New(CRCW, 1024)
	a := NewArray[int](m, 5000)
	m.Step(5000, func(id int) { a.Write(id, id, id*2) })
	for i := 0; i < 5000; i += 513 {
		if a.Read(i) != i*2 {
			t.Fatalf("cell %d = %d", i, a.Read(i))
		}
	}
}

func TestDeterministicUnderConcurrency(t *testing.T) {
	// Priority resolution must make concurrent-write outcomes reproducible
	// regardless of goroutine scheduling.
	rng := rand.New(rand.NewSource(42))
	targets := make([]int, 4096)
	for i := range targets {
		targets[i] = rng.Intn(64)
	}
	var first []int
	for rep := 0; rep < 3; rep++ {
		m := New(CRCW, 64)
		a := NewArray[int](m, 64)
		m.Step(4096, func(id int) {
			a.Write(id, targets[id], id)
		})
		snap := a.Snapshot()
		if rep == 0 {
			first = snap
			continue
		}
		for i := range snap {
			if snap[i] != first[i] {
				t.Fatalf("run %d differs at %d: %d vs %d", rep, i, snap[i], first[i])
			}
		}
	}
}

func TestParallelDo(t *testing.T) {
	m := New(CRCW, 16)
	times := []int{3, 7, 2}
	var workSum int64
	m.ParallelDo([]int{4, 4, 8}, func(b int, sub *Machine) {
		if sub.Mode() != CRCW {
			t.Error("child mode must match parent")
		}
		for s := 0; s < times[b]; s++ {
			sub.Step(sub.Procs(), func(int) {})
		}
		workSum += sub.Work()
	})
	// Parent charged the max child time (7 steps of cost 1 each).
	if m.Time() != 7 {
		t.Fatalf("parent time = %d, want 7 (max branch)", m.Time())
	}
	if m.Work() != workSum {
		t.Fatalf("parent work = %d, want sum %d", m.Work(), workSum)
	}
}
