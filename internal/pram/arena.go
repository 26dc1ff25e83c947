package pram

import (
	"sync/atomic"
	"unsafe"

	"monge/internal/exec"
	"monge/internal/obs"
)

// freeArrays is the PRAM's free list in the machine arena (exec.Recycle):
// one per element type, holding whole freed *Array values. NewArray
// checks one out, Array.Free returns one, and Machine.Reset releases
// everything to the garbage collector.
//
// The recycled payload is substantial: besides the three backing slices
// (vals/stamp/owner), a reused *Array keeps the append capacity of its 64
// write-buffer shards, which is what makes steady-state supersteps
// allocation-free. Recycled storage is fully zeroed at checkout, so a
// recycled array is indistinguishable from a fresh one (the conformance
// suites are the guard): in particular stamp/owner must not carry values
// from a previous machine whose step numbering could collide with the
// current one.
type freeArrays[T any] struct{ free []*Array[T] }

const (
	arenaScanLimit = 16 // checkout candidates inspected per call
	arenaListCap   = 64 // retained arrays per element type
)

// take removes and returns the most recently freed array whose capacity
// covers n, scanning at most arenaScanLimit candidates, or returns nil.
func (fl *freeArrays[T]) take(n int) *Array[T] {
	for i := len(fl.free) - 1; i >= 0 && len(fl.free)-i <= arenaScanLimit; i-- {
		if a := fl.free[i]; cap(a.vals) >= n {
			last := len(fl.free) - 1
			fl.free[i] = fl.free[last]
			fl.free[last] = nil
			fl.free = fl.free[:last]
			return a
		}
	}
	return nil
}

// checkoutArray returns a recycled array of length n for machine m, or
// nil when the arena has nothing suitable (the caller then allocates).
func checkoutArray[T any](m *Machine, n int) *Array[T] {
	var got *Array[T]
	exec.Recycle(&m.Sim, func(fl *freeArrays[T]) { got = fl.take(n) })
	c := exec.Counters(&m.Sim)
	if got == nil {
		c.Add(obs.ArenaMisses, 1)
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
	if c != nil {
		c.Add(obs.ArenaHits, 1)
		c.Add(obs.BytesRecycled, int64(n)*int64(unsafe.Sizeof(*new(T))+12))
	}
	return got
}

// Free returns the array's storage to its machine's arena for reuse by a
// later NewArray of the same element type. The caller asserts the array
// is dead: it must not be read or written afterwards, and it must have no
// writes buffered in the current step (such an array is dropped rather
// than recycled). Free is optional — arrays that are never freed are
// reclaimed by the garbage collector as before.
func (a *Array[T]) Free() {
	m := a.m
	if m == nil || atomic.LoadInt32(&a.dirty) != 0 {
		return
	}
	a.m = nil // double Free is a no-op; use-after-Free panics in Read/Write
	exec.Recycle(&m.Sim, func(fl *freeArrays[T]) {
		if len(fl.free) < arenaListCap {
			fl.free = append(fl.free, a)
		}
	})
}
