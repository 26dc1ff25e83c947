package pram

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"monge/internal/obs"
)

// arrayArena recycles Array storage between supersteps and between
// queries on the same machine. Free-lists are keyed by element type;
// NewArray checks one out, Array.Free returns one, and Machine.Reset
// releases everything to the garbage collector.
//
// The recycled payload is substantial: besides the three backing slices
// (vals/stamp/owner), a reused *Array keeps the append capacity of its 64
// write-buffer shards, which is what makes steady-state supersteps
// allocation-free. Recycled storage is fully zeroed at checkout, so a
// recycled array is indistinguishable from a fresh one (the conformance
// suites are the guard): in particular stamp/owner must not carry values
// from a previous machine whose stepID sequence could collide with the
// current one.
type arrayArena struct {
	mu    sync.Mutex
	lists map[reflect.Type]any // *freeArrays[T] per element type

	// machines recycles child Machine shells between ParallelDo branches
	// (the branch bodies run sequentially, so a handful suffice for any
	// recursion). A recycled child keeps its dirty-list capacity.
	machines []*Machine
}

func newArrayArena() *arrayArena {
	return &arrayArena{lists: make(map[reflect.Type]any)}
}

// release drops every retained array and machine. Called by Machine.Reset.
func (ar *arrayArena) release() {
	ar.mu.Lock()
	ar.lists = make(map[reflect.Type]any)
	ar.machines = nil
	ar.mu.Unlock()
}

// getMachine pops a recycled child shell, or returns nil.
func (ar *arrayArena) getMachine() *Machine {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	n := len(ar.machines)
	if n == 0 {
		return nil
	}
	sub := ar.machines[n-1]
	ar.machines[n-1] = nil
	ar.machines = ar.machines[:n-1]
	return sub
}

// putMachine retains a finished child shell for reuse.
func (ar *arrayArena) putMachine(sub *Machine) {
	ar.mu.Lock()
	if len(ar.machines) < arenaListCap {
		ar.machines = append(ar.machines, sub)
	}
	ar.mu.Unlock()
}

// checkoutArray returns a recycled array of length n for machine m, or
// nil when the arena has nothing suitable (the caller then allocates).
func checkoutArray[T any](m *Machine, n int) *Array[T] {
	ar := m.arena
	if ar == nil {
		return nil
	}
	key := reflect.TypeFor[T]()
	ar.mu.Lock()
	l, ok := ar.lists[key]
	if !ok {
		ar.mu.Unlock()
		m.obsC.Add(obs.ArenaMisses, 1)
		return nil
	}
	fl := l.(*freeArrays[T])
	var got *Array[T]
	for i := len(fl.free) - 1; i >= 0 && len(fl.free)-i <= arenaScanLimit; i-- {
		if a := fl.free[i]; cap(a.vals) >= n {
			last := len(fl.free) - 1
			fl.free[i] = fl.free[last]
			fl.free[last] = nil
			fl.free = fl.free[:last]
			got = a
			break
		}
	}
	ar.mu.Unlock()
	if got == nil {
		m.obsC.Add(obs.ArenaMisses, 1)
		return nil
	}
	got.m = m
	got.vals = got.vals[:n]
	got.stamp = got.stamp[:n]
	got.owner = got.owner[:n]
	clear(got.vals)
	clear(got.stamp)
	clear(got.owner)
	got.dirty = 0
	if c := m.obsC; c != nil {
		c.Add(obs.ArenaHits, 1)
		c.Add(obs.BytesRecycled, int64(n)*int64(unsafe.Sizeof(*new(T))+12))
	}
	return got
}

// freeArrays is the per-element-type free-list. A thin wrapper instead of
// scratch.FreeList because the recycled unit is the whole *Array (shard
// capacity included), not a bare slice.
type freeArrays[T any] struct{ free []*Array[T] }

const (
	arenaScanLimit = 16 // checkout candidates inspected per call
	arenaListCap   = 64 // retained arrays per element type
)

// Free returns the array's storage to its machine's arena for reuse by a
// later NewArray of the same element type. The caller asserts the array
// is dead: it must not be read or written afterwards, and it must have no
// writes buffered in the current step (such an array is dropped rather
// than recycled). Free is optional — arrays that are never freed are
// reclaimed by the garbage collector as before.
func (a *Array[T]) Free() {
	m := a.m
	if m == nil || m.arena == nil || atomic.LoadInt32(&a.dirty) != 0 {
		return
	}
	a.m = nil // double Free is a no-op; use-after-Free panics in Read/Write
	ar := m.arena
	key := reflect.TypeFor[T]()
	ar.mu.Lock()
	l, ok := ar.lists[key]
	if !ok {
		l = &freeArrays[T]{}
		ar.lists[key] = l
	}
	fl := l.(*freeArrays[T])
	if len(fl.free) < arenaListCap {
		fl.free = append(fl.free, a)
	}
	ar.mu.Unlock()
}
