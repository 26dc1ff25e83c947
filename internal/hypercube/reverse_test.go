package hypercube

import (
	"math/rand"
	"testing"
)

func TestReverse(t *testing.T) {
	for d := 0; d <= 8; d++ {
		m := NewCube(d)
		m.SetFaults(nil) // this test pins clean charges
		v := NewVec(m, func(p int) int { return p * 3 })
		out := Reverse(m, v)
		n := m.Size()
		for p := 0; p < n; p++ {
			if out.Get(p) != (n-1-p)*3 {
				t.Fatalf("d=%d: Reverse[%d] = %d", d, p, out.Get(p))
			}
		}
		if d > 0 && m.Time() != int64(d) {
			t.Fatalf("Reverse must cost d steps, got %d", m.Time())
		}
	}
}

func TestMonotoneReadDec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		d := 3 + rng.Intn(5)
		m := NewCube(d)
		n := m.Size()
		src := NewVec(m, func(p int) int { return p*11 + 5 })
		// random NONINCREASING index vector
		idxs := make([]int, n)
		cur := n - 1
		for i := range idxs {
			if rng.Intn(3) == 0 && cur > 0 {
				cur -= rng.Intn(cur + 1)
			}
			idxs[i] = cur
		}
		idx := NewVec(m, func(p int) int { return idxs[p] })
		out := MonotoneReadDec(m, src, idx)
		for p := 0; p < n; p++ {
			if out.Get(p) != idxs[p]*11+5 {
				t.Fatalf("trial %d: read[%d] = %d, want src[%d]", trial, p, out.Get(p), idxs[p])
			}
		}
	}
}

func TestMonotoneReadDecConstant(t *testing.T) {
	m := NewCube(5)
	src := NewVec(m, func(p int) int { return p })
	idx := NewVec(m, func(p int) int { return 7 })
	out := MonotoneReadDec(m, src, idx)
	for p := 0; p < 32; p++ {
		if out.Get(p) != 7 {
			t.Fatalf("constant read failed at %d", p)
		}
	}
}

func TestRouteCollisionDetected(t *testing.T) {
	// A deliberately NON-monotone destination map must trip the
	// congestion assertion rather than deliver silently-wrong data.
	m := NewCube(4)
	defer func() {
		if recover() == nil {
			t.Skip("this particular non-monotone map routed without collision")
		}
	}()
	// Crossing routes: 0->15, 1->14, ..., 7->8 (strictly DECREASING dsts).
	Send(m,
		func(p int) bool { return p < 8 },
		func(p int) int { return p },
		func(p int) int { return 15 - p },
	)
}

func TestSubcubeWorkSums(t *testing.T) {
	m := NewCube(4)
	m.ParallelDo([]int{2, 2, 2, 2}, func(c int, sub *Machine) {
		sub.Local(1, func(int) {})
	})
	// 4 subcubes x 4 procs x 1 op = 16 work, but only max time = 1.
	if m.Work() != 16 || m.Time() != 1 {
		t.Fatalf("work %d (want 16), time %d (want 1)", m.Work(), m.Time())
	}
}
