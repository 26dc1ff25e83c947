package hypercube

import (
	"testing"

	"monge/internal/exec"
	"monge/internal/faults"
)

func TestKindString(t *testing.T) {
	if Cube.String() != "hypercube" || CCC.String() != "cube-connected-cycles" ||
		Shuffle.String() != "shuffle-exchange" {
		t.Fatal("kind names wrong")
	}
	if Kind(7).String() != "Kind(7)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestNewAndAccessors(t *testing.T) {
	m := NewCube(4)
	if m.Dim() != 4 || m.Size() != 16 || m.Kind() != Cube {
		t.Fatal("accessors wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative dimension should panic")
		}
	}()
	New(Cube, -1)
}

func TestExchange(t *testing.T) {
	m := NewCube(3)
	v := NewVec(m, func(p int) int { return p })
	out := Exchange(m, 1, v)
	for p := 0; p < 8; p++ {
		if out.Get(p) != p^2 {
			t.Fatalf("exchange dim 1 at %d: got %d", p, out.Get(p))
		}
	}
	if m.Time() != 1 || m.Comm() != 8 {
		t.Fatalf("charges: time %d comm %d", m.Time(), m.Comm())
	}
}

func TestExchangeBadDim(t *testing.T) {
	m := NewCube(3)
	v := NewVec[int](m, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("bad dim should panic")
		}
	}()
	Exchange(m, 3, v)
}

func TestLocalCharges(t *testing.T) {
	m := NewCube(3)
	m.Local(5, func(p int) {})
	if m.Time() != 5 || m.Work() != 40 {
		t.Fatalf("time %d work %d", m.Time(), m.Work())
	}
	m.Reset()
	if m.Time() != 0 {
		t.Fatal("reset failed")
	}
}

// TestLocalFaultRecoveryCharges pins the one recovery-charge rule of a
// computation step on the networks, the same as the PRAM's: each stalled
// chunk re-executes at the step's cost (cost time, cost·chunk work) and
// each step timeout re-executes the whole step (cost time, cost·2^d
// work). The charges above a clean run must match the injector's counts.
func TestLocalFaultRecoveryCharges(t *testing.T) {
	const d, cost, steps = 12, 5, 20
	run := func(in *faults.Injector) *Machine {
		m := NewCube(d)
		m.SetFaults(in)
		for s := 0; s < steps; s++ {
			m.Local(cost, func(int) {})
		}
		return m
	}
	clean := run(nil)
	in := faults.New(3, 0.2)
	faulty := run(in)
	st := in.Stats()
	if st.Stalls == 0 || st.Timeouts == 0 {
		t.Fatalf("injector delivered %d stalls and %d timeouts; the rule needs both", st.Stalls, st.Timeouts)
	}
	if got, want := faulty.Time()-clean.Time(), cost*(st.Stalls+st.Timeouts); got != want {
		t.Fatalf("recovery time %d, want %d = %d·(%d stalls + %d timeouts)", got, want, cost, st.Stalls, st.Timeouts)
	}
	chunk, _ := exec.ChunkBounds(1 << d)
	if got, want := faulty.Work()-clean.Work(), cost*(int64(chunk)*st.Stalls+(1<<d)*st.Timeouts); got != want {
		t.Fatalf("recovery work %d, want %d", got, want)
	}
}

func TestShuffleEmulationCharges(t *testing.T) {
	// A normal dimension sequence costs ~2 per step on the
	// shuffle-exchange network; the same sequence costs 1 per step on the
	// hypercube.
	run := func(kind Kind) int64 {
		m := New(kind, 6)
		m.SetFaults(nil) // this test pins clean charges
		v := NewVec(m, func(p int) int { return p })
		for k := 0; k < 6; k++ {
			v = Exchange(m, k, v)
		}
		return m.Time()
	}
	hc, se, ccc := run(Cube), run(Shuffle), run(CCC)
	if hc != 6 {
		t.Fatalf("hypercube time %d, want 6", hc)
	}
	if se < hc+5 || se > 3*hc {
		t.Fatalf("shuffle-exchange emulation charge out of range: %d", se)
	}
	if ccc <= se-6 || ccc > 4*hc {
		t.Fatalf("CCC emulation charge out of range: %d", ccc)
	}
}

func TestShuffleNonNormalPaysMore(t *testing.T) {
	m := New(Shuffle, 6)
	m.SetFaults(nil) // this test pins clean charges
	v := NewVec(m, func(p int) int { return p })
	v = Exchange(m, 0, v)
	t0 := m.Time()
	v = Exchange(m, 3, v) // jump of 3 dims: 3 rotations + exchange
	if m.Time()-t0 != 4 {
		t.Fatalf("misaligned exchange charged %d, want 4", m.Time()-t0)
	}
	_ = v
}

func TestSameResultsAcrossKinds(t *testing.T) {
	// Data movement must be identical on all three networks.
	results := make([][]int, 0, 3)
	for _, kind := range []Kind{Cube, CCC, Shuffle} {
		m := New(kind, 5)
		v := NewVec(m, func(p int) int { return p * p })
		Scan(m, v, func(a, b int) int { return a + b })
		results = append(results, v.Snapshot())
	}
	for i := 1; i < 3; i++ {
		for p := range results[0] {
			if results[i][p] != results[0][p] {
				t.Fatalf("kind %d differs at %d", i, p)
			}
		}
	}
}

// TestSubcubes splits a 4-cube into four 2-dimensional sub-hypercubes
// with ParallelDo: each runs its own scan, and the parent is charged
// the maximum branch time.
func TestSubcubes(t *testing.T) {
	m := NewCube(4)
	got := make([]int, 4)
	m.ParallelDo([]int{2, 2, 2, 2}, func(c int, sub *Machine) {
		if sub.Size() != 4 || sub.Dim() != 2 {
			t.Fatalf("subcube %d has size %d", c, sub.Size())
		}
		v := NewVec(sub, func(p int) int { return c*4 + p })
		Scan(sub, v, func(a, b int) int { return a + b })
		got[c] = v.Get(3)
	})
	for c := 0; c < 4; c++ {
		want := (c*4 + c*4 + 3) * 4 / 2
		if got[c] != want {
			t.Fatalf("subcube %d sum = %d, want %d", c, got[c], want)
		}
	}
	// Parent charged the max child time, not the sum.
	var single int64
	{
		s := NewCube(2)
		v := NewVec(s, func(p int) int { return p })
		Scan(s, v, func(a, b int) int { return a + b })
		single = s.Time()
	}
	if m.Time() != single {
		t.Fatalf("parent time %d, want max child %d", m.Time(), single)
	}
}

func TestCondSwap(t *testing.T) {
	m := NewCube(2)
	v := NewVec(m, func(p int) int { return []int{3, 1, 2, 0}[p] })
	// compare-exchange on dim 0, lower index keeps min
	CondSwap(m, 0, v, func(p int, mine, theirs int) int {
		if p&1 == 0 {
			if theirs < mine {
				return theirs
			}
			return mine
		}
		if mine < theirs {
			return theirs
		}
		return mine
	})
	want := []int{1, 3, 0, 2}
	for p, w := range want {
		if v.Get(p) != w {
			t.Fatalf("condswap: %v want %v", v.Snapshot(), want)
		}
	}
}

func TestVecSnapshotIsCopy(t *testing.T) {
	m := NewCube(2)
	v := NewVec(m, func(p int) int { return p })
	s := v.Snapshot()
	s[0] = 99
	if v.Get(0) == 99 {
		t.Fatal("snapshot must copy")
	}
}

func TestParallelDoNetworks(t *testing.T) {
	m := New(Shuffle, 4)
	m.ParallelDo([]int{2, 3}, func(b int, sub *Machine) {
		if sub.Kind() != Shuffle {
			t.Error("child kind must match parent")
		}
		v := NewVec(sub, func(p int) int { return p })
		Scan(sub, v, func(a, b int) int { return a + b })
	})
	if m.Time() == 0 || m.Comm() == 0 {
		t.Fatal("parent must be charged max time and summed comm")
	}
	// Max-time semantics: a single dim-3 scan costs at least as much as
	// the parent was charged.
	single := New(Shuffle, 3)
	v := NewVec(single, func(p int) int { return p })
	Scan(single, v, func(a, b int) int { return a + b })
	if m.Time() != single.Time() {
		t.Fatalf("parent time %d, want max branch %d", m.Time(), single.Time())
	}
}
