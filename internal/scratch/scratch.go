// Package scratch provides the allocation-recycling building blocks used
// by the simulators and the sequential searching kernels: a generic bump
// Arena with stack-discipline marks for recursion workspaces, and a
// generic slice FreeList for superstep buffers that are checked out at
// step start and returned at the barrier.
//
// Both containers trade a tiny amount of bookkeeping for steady-state
// freedom from the Go allocator: after a warm-up call at peak problem
// size, repeated runs of the same shape perform no heap allocation. They
// are deliberately not goroutine-safe — callers either own them outright
// (Arena inside a single recursion) or serialize access externally
// (FreeList behind the machine arena mutex).
package scratch

// Arena is a bump allocator over a list of geometrically growing blocks.
// Alloc returns zeroed scratch slices carved from the current block;
// Mark/Rewind give LIFO discipline so a recursive algorithm reclaims a
// whole frame at once when it returns. Block storage is never shrunk, so
// an arena that has seen its peak size stops allocating entirely.
type Arena[T any] struct {
	blocks [][]T
	bi     int // index of the block currently being bumped
	used   int // elements consumed from blocks[bi]
}

// Mark is a position in an Arena; Rewind(mark) frees every allocation
// made after the matching Mark call.
type Mark struct{ bi, used int }

// minBlock is the smallest block ever allocated; growth doubles from
// there, so the block list stays logarithmic in the peak footprint.
const minBlock = 1024

// Alloc returns a zeroed slice of length n with capacity exactly n, so a
// caller's append can never bleed into a neighbouring allocation.
func (a *Arena[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if a.bi < len(a.blocks) {
			if blk := a.blocks[a.bi]; len(blk)-a.used >= n {
				s := blk[a.used : a.used+n : a.used+n]
				a.used += n
				clear(s)
				return s
			}
			if a.bi+1 < len(a.blocks) {
				// The remainder of this block is abandoned until the next
				// Rewind below it; later blocks are larger, so the waste is
				// bounded by a constant factor.
				a.bi++
				a.used = 0
				continue
			}
		}
		size := minBlock
		if n := len(a.blocks); n > 0 {
			size = 2 * len(a.blocks[n-1])
		}
		if size < n {
			size = n
		}
		a.blocks = append(a.blocks, make([]T, size))
		a.bi = len(a.blocks) - 1
		a.used = 0
	}
}

// Mark returns the current allocation position.
func (a *Arena[T]) Mark() Mark { return Mark{a.bi, a.used} }

// Rewind frees everything allocated after m. Slices handed out above the
// mark must be dead; their storage is reissued (zeroed) by later Allocs.
func (a *Arena[T]) Rewind(m Mark) { a.bi, a.used = m.bi, m.used }

// Reset rewinds the arena to empty, retaining block storage for reuse.
func (a *Arena[T]) Reset() { a.bi, a.used = 0, 0 }

// FreeList is a LIFO recycler for equal-typed slices. Get prefers the
// most recently Put slice whose capacity covers the request (scanning at
// most scanLimit candidates so a pathological size mix stays O(1)), and
// Put retains at most listCap slices, dropping the excess for the
// garbage collector.
type FreeList[T any] struct{ free [][]T }

const (
	scanLimit = 16
	listCap   = 64
)

// Get returns a slice of length n, recycled when possible. The contents
// are NOT zeroed — callers that expose zero-value semantics must clear
// the slice themselves (the machine arenas do). The second result
// reports whether the slice was recycled.
func (f *FreeList[T]) Get(n int) ([]T, bool) {
	for i, scanned := len(f.free)-1, 0; i >= 0 && scanned < scanLimit; i, scanned = i-1, scanned+1 {
		if s := f.free[i]; cap(s) >= n {
			last := len(f.free) - 1
			f.free[i] = f.free[last]
			f.free[last] = nil
			f.free = f.free[:last]
			return s[:n], true
		}
	}
	return make([]T, n), false
}

// Put returns a slice to the free list. Nil and zero-capacity slices are
// ignored; beyond listCap the slice is dropped.
func (f *FreeList[T]) Put(s []T) {
	if cap(s) == 0 || len(f.free) >= listCap {
		return
	}
	f.free = append(f.free, s[:0])
}

// Len reports how many slices are currently retained.
func (f *FreeList[T]) Len() int { return len(f.free) }
