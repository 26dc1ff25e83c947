package hypercube

import (
	"fmt"

	"monge/internal/merr"
)

// This file provides the normal-algorithm building blocks of [LLS89] used
// by Section 3 of the paper: parallel prefix (plain, exclusive, and
// segmented), broadcast, all-gather, bitonic sorting, monotone (isotone)
// routing, and monotone reads. Every primitive uses one dimension per
// step, so all of them run on the CCC and shuffle-exchange adapters with
// constant-factor slowdown.

// Opt is a possibly-absent local value, used by routing primitives.
type Opt[T any] struct {
	Val T
	Ok  bool
}

// Some wraps a present value.
func Some[T any](v T) Opt[T] { return Opt[T]{Val: v, Ok: true} }

// Scan replaces v with its inclusive prefix combination under the
// associative op and returns a Vec in which every processor holds the
// total. d communication steps.
func Scan[T any](m *Machine, v *Vec[T], op func(T, T) T) *Vec[T] {
	tot := NewVec(m, func(p int) T { return v.Get(p) })
	for k := 0; k < m.d; k++ {
		ntot := Exchange(m, k, tot)
		bit := 1 << k
		m.Local(1, func(p int) {
			if p&bit != 0 {
				v.Set(p, op(ntot.Get(p), v.Get(p)))
				tot.Set(p, op(ntot.Get(p), tot.Get(p)))
			} else {
				tot.Set(p, op(tot.Get(p), ntot.Get(p)))
			}
		})
		ntot.Free()
	}
	return tot
}

// ScanExclusive writes into v the exclusive prefix combination (identity at
// processor 0) and returns the total Vec.
func ScanExclusive[T any](m *Machine, v *Vec[T], identity T, op func(T, T) T) *Vec[T] {
	tot := NewVec(m, func(p int) T { return v.Get(p) })
	pre := NewVec(m, func(int) T { return identity })
	for k := 0; k < m.d; k++ {
		ntot := Exchange(m, k, tot)
		bit := 1 << k
		m.Local(1, func(p int) {
			if p&bit != 0 {
				pre.Set(p, op(ntot.Get(p), pre.Get(p)))
				tot.Set(p, op(ntot.Get(p), tot.Get(p)))
			} else {
				tot.Set(p, op(tot.Get(p), ntot.Get(p)))
			}
		})
		ntot.Free()
	}
	m.Local(1, func(p int) { v.Set(p, pre.Get(p)) })
	pre.Free()
	return tot
}

// ShiftPrev returns a Vec holding, at each processor p > 0, the value
// processor p-1 held in v, and fill at processor 0. It is the exclusive
// scan under the take-rightmost-present operation (Opt-wrapped, since
// take-right has no identity value).
func ShiftPrev[T any](m *Machine, v *Vec[T], fill T) *Vec[T] {
	out := NewVec(m, func(p int) Opt[T] { return Some(v.Get(p)) })
	ScanExclusive(m, out, Opt[T]{}, func(a, b Opt[T]) Opt[T] {
		if b.Ok {
			return b
		}
		return a
	}).Free()
	res := NewVec(m, func(p int) T {
		if o := out.Get(p); o.Ok {
			return o.Val
		}
		return fill
	})
	out.Free()
	return res
}

// segPair carries a segmented-scan state.
type segPair[T any] struct {
	val  T
	head bool
}

// SegScan replaces v with its inclusive segmented prefix combination:
// positions where head holds true start a new segment.
func SegScan[T any](m *Machine, v *Vec[T], head *Vec[bool], op func(T, T) T) {
	pairs := NewVec(m, func(p int) segPair[T] {
		return segPair[T]{val: v.Get(p), head: head.Get(p)}
	})
	Scan(m, pairs, func(a, b segPair[T]) segPair[T] {
		if b.head {
			return segPair[T]{val: b.val, head: true}
		}
		return segPair[T]{val: op(a.val, b.val), head: a.head}
	}).Free()
	m.Local(1, func(p int) { v.Set(p, pairs.Get(p).val) })
	pairs.Free()
}

// Broadcast spreads the value processor src holds in v to every processor.
// d communication steps.
func Broadcast[T any](m *Machine, src int, v *Vec[T]) {
	cur := NewVec(m, func(p int) Opt[T] {
		if p == src {
			return Some(v.Get(p))
		}
		return Opt[T]{}
	})
	for k := 0; k < m.d; k++ {
		ex := Exchange(m, k, cur)
		m.Local(1, func(p int) {
			if !cur.Get(p).Ok && ex.Get(p).Ok {
				cur.Set(p, ex.Get(p))
			}
		})
		ex.Free()
	}
	m.Local(1, func(p int) { v.Set(p, cur.Get(p).Val) })
	cur.Free()
}

// ReplicateLow copies the value held by the processor with the same low
// lowBits address bits in the lowest subcube (high bits zero) to every
// processor: after the call, processor p holds v[p mod 2^lowBits]. Used to
// replicate a small table into every subcube. d - lowBits steps.
func ReplicateLow[T any](m *Machine, lowBits int, v *Vec[T]) {
	for k := lowBits; k < m.d; k++ {
		ex := Exchange(m, k, v)
		bit := 1 << k
		m.Local(1, func(p int) {
			if p&bit != 0 {
				v.Set(p, ex.Get(p))
			}
		})
		ex.Free()
	}
}

// AllGather returns, at every processor of each 2^k-processor subcube, the
// slice of all values held within that subcube, ordered by processor
// index. Communication grows the lists dimension by dimension; intended
// for small subcubes (base cases).
func AllGather[T any](m *Machine, k int, v *Vec[T]) *Vec[[]T] {
	lists := NewVec(m, func(p int) []T { return []T{v.Get(p)} })
	for dim := 0; dim < k; dim++ {
		ex := Exchange(m, dim, lists)
		bit := 1 << dim
		m.Local(1<<dim, func(p int) {
			mine, theirs := lists.Get(p), ex.Get(p)
			merged := make([]T, 0, len(mine)+len(theirs))
			if p&bit == 0 {
				merged = append(append(merged, mine...), theirs...)
			} else {
				merged = append(append(merged, theirs...), mine...)
			}
			lists.Set(p, merged)
		})
		ex.Free()
	}
	return lists
}

// routeItem is a value in flight with its destination processor.
type routeItem[T any] struct {
	val T
	dst int
}

// routeBits performs greedy bit-fixing routing over all dimensions, in
// ascending order when ascending is true, else descending. Collisions
// panic: the callers only invoke it in the provably congestion-free
// patterns (Nassimi-Sahni): concentration fixes bits LSB to MSB,
// distribution MSB to LSB.
func routeBits[T any](m *Machine, items *Vec[Opt[routeItem[T]]], ascending bool) *Vec[Opt[routeItem[T]]] {
	cur := NewVec(m, func(p int) Opt[routeItem[T]] { return items.Get(p) })
	for step := 0; step < m.d; step++ {
		k := step
		if !ascending {
			k = m.d - 1 - step
		}
		ex := Exchange(m, k, cur)
		bit := 1 << k
		m.Local(1, func(p int) {
			mine := cur.Get(p)
			if mine.Ok && mine.Val.dst&bit != p&bit {
				mine = Opt[routeItem[T]]{} // departs across dimension k
			}
			in := ex.Get(p)
			if in.Ok && in.Val.dst&bit == p&bit {
				if mine.Ok {
					// Invariant violation on a worker goroutine: must stay a
					// panic (merr.Throw is caller-goroutine only).
					panic(fmt.Sprintf("monge: hypercube: routing collision at processor %d, dim %d", p, k))
				}
				mine = in
			}
			cur.Set(p, mine)
		})
		ex.Free()
	}
	for p := 0; p < m.n; p++ {
		if it := cur.Get(p); it.Ok && it.Val.dst != p {
			panic(fmt.Sprintf("monge: hypercube: item for %d stranded at %d", it.Val.dst, p))
		}
	}
	return cur
}

// RouteMonotone delivers the present items to their destinations. The
// destination map must be strictly increasing on the set of holders (the
// isotone-routing setting of [LLS89] / Lemma 3.1). Implemented as a
// concentration (rank the items by a prefix sum and pack them LSB-first)
// followed by a distribution (MSB-first), both congestion-free; 3d
// communication steps total. Returns a Vec with the delivered items.
func RouteMonotone[T any](m *Machine, items *Vec[Opt[routeItem[T]]]) *Vec[Opt[T]] {
	ranks := NewVec(m, func(p int) int {
		if items.Get(p).Ok {
			return 1
		}
		return 0
	})
	Scan(m, ranks, func(a, b int) int { return a + b }).Free()
	// Concentration: send each item to its rank-1 slot, keeping its final
	// destination as payload.
	packedIn := NewVec(m, func(p int) Opt[routeItem[routeItem[T]]] {
		it := items.Get(p)
		if !it.Ok {
			return Opt[routeItem[routeItem[T]]]{}
		}
		return Some(routeItem[routeItem[T]]{val: it.Val, dst: ranks.Get(p) - 1})
	})
	ranks.Free()
	packed := routeBits(m, packedIn, true)
	packedIn.Free()
	// Distribution: from the packed prefix to the increasing destinations.
	spreadIn := NewVec(m, func(p int) Opt[routeItem[T]] {
		it := packed.Get(p)
		if !it.Ok {
			return Opt[routeItem[T]]{}
		}
		return Some(it.Val.val)
	})
	packed.Free()
	final := routeBits(m, spreadIn, false)
	spreadIn.Free()
	out := NewVec(m, func(p int) Opt[T] {
		it := final.Get(p)
		if !it.Ok {
			return Opt[T]{}
		}
		return Some(it.Val.val)
	})
	final.Free()
	return out
}

// Send wraps per-processor optional payloads and destinations for
// RouteMonotone: processor p contributes val(p) to dst(p) when has(p).
func Send[T any](m *Machine, has func(p int) bool, val func(p int) T, dst func(p int) int) *Vec[Opt[T]] {
	items := NewVec(m, func(p int) Opt[routeItem[T]] {
		if !has(p) {
			return Opt[routeItem[T]]{}
		}
		d := dst(p)
		if d < 0 || d >= m.n {
			merr.Throwf(merr.ErrDimensionMismatch,
				"hypercube: destination %d out of range for %d processors", d, m.n)
		}
		return Some(routeItem[T]{val: val(p), dst: d})
	})
	out := RouteMonotone(m, items)
	items.Free()
	return out
}

// Concentrate packs the present values to the lowest-numbered processors,
// preserving order, and returns the packed Vec and the total count (known
// to every processor). O(d) steps: a prefix sum computes ranks, then a
// monotone route delivers.
func Concentrate[T any](m *Machine, v *Vec[Opt[T]]) (*Vec[Opt[T]], int) {
	ranks := NewVec(m, func(p int) int {
		if v.Get(p).Ok {
			return 1
		}
		return 0
	})
	tot := Scan(m, ranks, func(a, b int) int { return a + b })
	items := NewVec(m, func(p int) Opt[routeItem[T]] {
		if !v.Get(p).Ok {
			return Opt[routeItem[T]]{}
		}
		return Some(routeItem[T]{val: v.Get(p).Val, dst: ranks.Get(p) - 1})
	})
	ranks.Free()
	routed := routeBits(m, items, true)
	items.Free()
	out := NewVec(m, func(p int) Opt[T] {
		it := routed.Get(p)
		if !it.Ok {
			return Opt[T]{}
		}
		return Some(it.Val.val)
	})
	routed.Free()
	n := tot.Get(0)
	tot.Free()
	return out, n
}

// MonotoneRead returns, at every processor p, the value src[idx(p)], where
// idx must be nondecreasing in p. O(d) steps: segment leaders (where idx
// changes) fetch the distinct values by a routed request/reply round trip,
// then a segmented copy spreads them. This is the read counterpart of
// isotone routing used by Lemma 3.1's data distribution.
func MonotoneRead[T any](m *Machine, src *Vec[T], idx *Vec[int]) *Vec[T] {
	prev := ShiftPrev(m, idx, -1)
	leader := NewVec(m, func(p int) bool { return idx.Get(p) != prev.Get(p) })
	prev.Free()
	// Request round: leaders send their own address to the source cell.
	reqs := Send(m,
		func(p int) bool { return leader.Get(p) },
		func(p int) int { return p },
		func(p int) int { return idx.Get(p) },
	)
	// Reply round: source cells send their value back to the requester.
	reps := Send(m,
		func(p int) bool { return reqs.Get(p).Ok },
		func(p int) T { return src.Get(p) },
		func(p int) int { return reqs.Get(p).Val },
	)
	reqs.Free()
	// Spread within segments.
	vals := NewVec(m, func(p int) Opt[T] { return reps.Get(p) })
	reps.Free()
	SegScan(m, vals, leader, func(a, b Opt[T]) Opt[T] {
		if b.Ok {
			return b
		}
		return a
	})
	leader.Free()
	out := NewVec(m, func(p int) T { return vals.Get(p).Val })
	vals.Free()
	return out
}

// Reverse returns a Vec holding v in reversed processor order:
// out[p] = v[n-1-p]. Index reversal is the all-dimensions bit complement,
// realised as one exchange per dimension (d steps).
func Reverse[T any](m *Machine, v *Vec[T]) *Vec[T] {
	out := NewVec(m, func(p int) T { return v.Get(p) })
	for k := 0; k < m.d; k++ {
		next := Exchange(m, k, out)
		out.Free()
		out = next
	}
	return out
}

// MonotoneReadDec is MonotoneRead for NONINCREASING index vectors: it
// reverses the source (d steps) and reads with the complemented, hence
// nondecreasing, indices.
func MonotoneReadDec[T any](m *Machine, src *Vec[T], idx *Vec[int]) *Vec[T] {
	rsrc := Reverse(m, src)
	ridx := NewVec(m, func(p int) int { return m.n - 1 - idx.Get(p) })
	out := MonotoneRead(m, rsrc, ridx)
	rsrc.Free()
	ridx.Free()
	return out
}

// BitonicSort sorts the n values of v in nondecreasing order under less
// (which must be a strict total order for determinism). The classic
// bitonic network: d(d+1)/2 compare-exchange steps, each on one dimension,
// hence normal.
func BitonicSort[T any](m *Machine, v *Vec[T], less func(a, b T) bool) {
	for k := 0; k < m.d; k++ {
		for j := k; j >= 0; j-- {
			bitJ := 1 << j
			ascMask := 1 << (k + 1)
			CondSwap(m, j, v, func(p int, mine, theirs T) T {
				asc := k == m.d-1 || p&ascMask == 0
				lowSide := p&bitJ == 0
				if lowSide == asc {
					// this side keeps the smaller value
					if less(theirs, mine) {
						return theirs
					}
					return mine
				}
				if less(mine, theirs) {
					return theirs
				}
				return mine
			})
		}
	}
}
