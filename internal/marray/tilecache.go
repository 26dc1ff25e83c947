package marray

// Tile-memoized evaluation for Func-backed matrices.
//
// The PRAM and network algorithms re-evaluate implicit entries a[i,j]
// many times across a query's supersteps (sampled-row recursions revisit
// the same columns, staircase decompositions re-probe boundary regions),
// and in the repeated-query regime of the serving layer that cost is paid
// per superstep rather than once. A TileCache turns any Matrix into a
// memoized view: entries are computed a whole power-of-two tile at a
// time, tiles live in a fixed-size direct-mapped slot table, and a
// per-slot mutex makes the fill single-flight — when several goroutines
// of one superstep race for a cold tile, exactly one computes it and the
// rest read the published result. The cache never stores stale data
// across queries: View bumps a generation stamp, so tiles of a previous
// matrix simply miss and are overwritten in place (no clearing pass).
//
// Dense matrices gain nothing from memoization (At is one bounds-checked
// load); callers should wrap only function-backed inputs.
//
// No production path uses a TileCache now. The serving pool and the
// submatrix index both evaluate their inputs directly: the searching
// algorithms on native goroutines and the index build touch most
// entries once, so filling a whole 8x8 tile per miss over-evaluates and
// every hit pays a shared atomic add. The type stays as the measured
// alternative (the benchmark times a query through a fresh View beside
// the same query on the raw input).

import (
	"sync"
	"sync/atomic"
)

const (
	// tileBits is lg of the tile side: 8x8 tiles, 64 entries, 512 B of
	// values per tile — small enough that a partially used tile wastes
	// little fill work, large enough to amortize the slot probe.
	tileBits = 3
	tileSide = 1 << tileBits
	tileMask = tileSide - 1

	// DefaultTiles is the slot count used when a caller passes a
	// non-positive capacity: 2048 tiles ≈ 1.1 MiB of cached values,
	// covering a 360x360 implicit matrix entirely.
	DefaultTiles = 2048
)

// tile is one filled block of entries. ti/tj are the tile coordinates
// (i>>tileBits, j>>tileBits) and gen the View generation that filled it;
// a slot hit requires all three to match.
type tile struct {
	gen    uint64
	ti, tj int32
	vals   [tileSide * tileSide]float64
}

// slot is one direct-mapped cache line: the published tile plus the
// single-flight fill lock.
type slot struct {
	mu  sync.Mutex
	cur atomic.Pointer[tile]
}

// TileCache is a fixed-size memoization arena for matrix entries. It is
// safe for concurrent use; one cache should be owned by one serving
// shard (worker) so its working set tracks that shard's queries. The
// zero value is not usable; create caches with NewTileCache.
type TileCache struct {
	mask   uint32
	slots  []slot
	gen    atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
}

// NewTileCache returns a cache with capacity for at least tiles tiles,
// rounded up to a power of two (DefaultTiles when tiles <= 0).
func NewTileCache(tiles int) *TileCache {
	if tiles <= 0 {
		tiles = DefaultTiles
	}
	cap := 1
	for cap < tiles {
		cap <<= 1
	}
	return &TileCache{mask: uint32(cap - 1), slots: make([]slot, cap)}
}

// Hits returns the number of probes served from a filled tile.
func (c *TileCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of probes that filled (or re-filled) a tile.
func (c *TileCache) Misses() int64 { return c.misses.Load() }

// View returns a memoized view of a. Each call starts a new generation,
// invalidating every tile of previous views without touching them, so a
// long-lived cache can be re-bound to each query's matrix for free.
// The view preserves the Staircase interface: wrapping a staircase
// matrix keeps Boundary (and therefore the staircase algorithms' blocked
// -region structure) intact, while At — including the +Inf entries — is
// served through the cache.
func (c *TileCache) View(a Matrix) Matrix {
	v := cachedView{c: c, a: a, gen: c.gen.Add(1)}
	if s, ok := a.(Staircase); ok {
		return cachedStair{cachedView: v, s: s}
	}
	return v
}

// cachedView is the Matrix facade over one (cache, matrix, generation)
// binding.
type cachedView struct {
	c   *TileCache
	a   Matrix
	gen uint64
}

// Rows returns the number of rows of the wrapped matrix.
func (v cachedView) Rows() int { return v.a.Rows() }

// Cols returns the number of columns of the wrapped matrix.
func (v cachedView) Cols() int { return v.a.Cols() }

// At returns the wrapped entry, computing its whole tile on first touch.
func (v cachedView) At(i, j int) float64 {
	ti, tj := int32(i>>tileBits), int32(j>>tileBits)
	h := uint32(ti)*2654435761 ^ uint32(tj)*2246822519
	s := &v.c.slots[h&v.c.mask]
	if t := s.cur.Load(); t != nil && t.gen == v.gen && t.ti == ti && t.tj == tj {
		v.c.hits.Add(1)
		return t.vals[(i&tileMask)<<tileBits|(j&tileMask)]
	}
	return v.fill(s, i, j, ti, tj)
}

// fill computes the tile containing (i, j) under the slot's single-flight
// lock and publishes it, then answers the probe. A goroutine that lost
// the race finds the tile already current and reads it as a hit.
func (v cachedView) fill(s *slot, i, j int, ti, tj int32) float64 {
	s.mu.Lock()
	if t := s.cur.Load(); t != nil && t.gen == v.gen && t.ti == ti && t.tj == tj {
		s.mu.Unlock()
		v.c.hits.Add(1)
		return t.vals[(i&tileMask)<<tileBits|(j&tileMask)]
	}
	nt := &tile{gen: v.gen, ti: ti, tj: tj}
	iLo, jLo := int(ti)<<tileBits, int(tj)<<tileBits
	iHi, jHi := iLo+tileSide, jLo+tileSide
	if m := v.a.Rows(); iHi > m {
		iHi = m
	}
	if n := v.a.Cols(); jHi > n {
		jHi = n
	}
	for ii := iLo; ii < iHi; ii++ {
		row := nt.vals[(ii-iLo)<<tileBits:]
		for jj := jLo; jj < jHi; jj++ {
			row[jj-jLo] = v.a.At(ii, jj)
		}
	}
	s.cur.Store(nt)
	s.mu.Unlock()
	v.c.misses.Add(1)
	return nt.vals[(i&tileMask)<<tileBits|(j&tileMask)]
}

// cachedStair is cachedView for staircase matrices: the boundary is
// forwarded so the view still satisfies Staircase.
type cachedStair struct {
	cachedView
	s Staircase
}

// Boundary returns the wrapped matrix's first blocked column of row i.
func (v cachedStair) Boundary(i int) int { return v.s.Boundary(i) }
