package hypercube

import (
	"reflect"
	"sync"
	"unsafe"

	"monge/internal/obs"
	"monge/internal/scratch"
)

// vecArena recycles Vec backing storage and child-machine shells between
// steps and between queries on one machine family. Slice free-lists are
// keyed by element type; Exchange, CondSwap and NewVec check slices out,
// Vec.Free returns them, and Machine.Reset releases everything. Children
// created by Subcubes/ParallelDo share the parent's arena, so a
// subproblem's route buffers feed the next subproblem.
//
// Zeroing contract: a checkout is cleared only when the caller exposes
// zero-value semantics (NewVec with nil init); Exchange and CondSwap
// overwrite every cell in their dispatch loop, so their checkouts skip
// the clear. Conformance and fuzz suites guard the distinction.
type vecArena struct {
	mu     sync.Mutex
	slices map[reflect.Type]any // *scratch.FreeList[T] per element type

	machines []*Machine
}

func newVecArena() *vecArena {
	return &vecArena{slices: make(map[reflect.Type]any)}
}

// release drops every retained slice and machine shell. Called by Reset.
func (ar *vecArena) release() {
	ar.mu.Lock()
	ar.slices = make(map[reflect.Type]any)
	ar.machines = nil
	ar.mu.Unlock()
}

func (ar *vecArena) getMachine() *Machine {
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

func (ar *vecArena) putMachine(sub *Machine) {
	ar.mu.Lock()
	if len(ar.machines) < 64 {
		ar.machines = append(ar.machines, sub)
	}
	ar.mu.Unlock()
}

// vecScratch returns a slice of length n for machine m, recycled from the
// arena when possible. zero requests cleared contents; non-zeroed
// checkouts are only legal when the caller overwrites every cell before
// any read.
func vecScratch[T any](m *Machine, n int, zero bool) []T {
	ar := m.arena
	if ar == nil {
		return make([]T, n)
	}
	elem := unsafe.Sizeof(*new(T))
	key := reflect.TypeFor[T]()
	ar.mu.Lock()
	l, ok := ar.slices[key]
	if !ok {
		l = &scratch.FreeList[T]{}
		ar.slices[key] = l
	}
	fl := l.(*scratch.FreeList[T])
	s, hit := fl.Get(n, elem)
	ar.mu.Unlock()
	if c := m.obsC; c != nil {
		if hit {
			c.Add(obs.ArenaHits, 1)
			c.Add(obs.BytesRecycled, int64(n)*int64(elem))
		} else {
			c.Add(obs.ArenaMisses, 1)
		}
	}
	if hit && zero {
		clear(s)
	}
	return s
}

// putVecScratch returns a slice to machine m's arena.
func putVecScratch[T any](m *Machine, s []T) {
	ar := m.arena
	if ar == nil || cap(s) == 0 {
		return
	}
	key := reflect.TypeFor[T]()
	ar.mu.Lock()
	if l, ok := ar.slices[key]; ok {
		l.(*scratch.FreeList[T]).Put(s)
	} else {
		fl := &scratch.FreeList[T]{}
		fl.Put(s)
		ar.slices[key] = fl
	}
	ar.mu.Unlock()
}

// Free returns the Vec's backing storage to its machine's arena for reuse
// by a later Vec of the same element type. The caller asserts the Vec is
// dead: Get/Set/Exchange on a freed Vec are invalid (Get panics on the
// nil slice). Free is optional — unfreed Vecs are garbage collected.
func (v *Vec[T]) Free() {
	if v == nil || v.m == nil || v.vals == nil {
		return
	}
	putVecScratch(v.m, v.vals)
	v.vals = nil
	v.m = nil
}
