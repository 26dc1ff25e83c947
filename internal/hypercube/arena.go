package hypercube

import (
	"unsafe"

	"monge/internal/exec"
	"monge/internal/obs"
	"monge/internal/scratch"
)

// Vec backing storage is recycled through the machine arena
// (exec.Recycle), one scratch.FreeList per element type: Exchange,
// CondSwap and NewVec check slices out, Vec.Free returns them, and
// Machine.Reset releases everything. Children created by
// ParallelDo share the parent's arena, so a subproblem's route
// buffers feed the next subproblem.
//
// Zeroing contract: a checkout is cleared only when the caller exposes
// zero-value semantics (NewVec with nil init); Exchange and CondSwap
// overwrite every cell in their dispatch loop, so their checkouts skip
// the clear. Conformance and fuzz suites guard the distinction.

// vecScratch returns a slice of length n for machine m, recycled from the
// arena when possible. zero requests cleared contents; non-zeroed
// checkouts are only legal when the caller overwrites every cell before
// any read.
func vecScratch[T any](m *Machine, n int, zero bool) []T {
	var s []T
	var hit bool
	exec.Recycle(&m.Sim, func(fl *scratch.FreeList[T]) { s, hit = fl.Get(n) })
	if c := exec.Counters(&m.Sim); c != nil {
		if hit {
			c.Add(obs.ArenaHits, 1)
			c.Add(obs.BytesRecycled, int64(n)*int64(unsafe.Sizeof(*new(T))))
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
	exec.Recycle(&m.Sim, func(fl *scratch.FreeList[T]) { fl.Put(s) })
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
