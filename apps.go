package monge

// This file exposes the paper's applications through the public API; the
// implementations live in the internal packages listed in DESIGN.md.

import (
	"monge/internal/dp"
	"monge/internal/geom"
	hc "monge/internal/hypercube"
	"monge/internal/pram"
	"monge/internal/rect"
	"monge/internal/smawk"
	"monge/internal/stredit"
	"monge/internal/transport"
)

// --- Figure 1.1 and application 3: convex-polygon neighbor problems --------

// Polygon is a strictly convex polygon in counterclockwise order.
type Polygon = geom.Polygon

// NeighborKind selects one of the four application-3 problems.
type NeighborKind = geom.NeighborKind

// The four neighbor problems of application 3.
const (
	NearestVisible    = geom.NearestVisible
	NearestInvisible  = geom.NearestInvisible
	FarthestVisible   = geom.FarthestVisible
	FarthestInvisible = geom.FarthestInvisible
)

// NeighborResult carries the per-vertex answers and solver statistics.
type NeighborResult = geom.NeighborResult

// AllFarthestNeighbors solves the Figure 1.1 problem: for each vertex of
// chain p, the farthest vertex of chain q (both chains of one convex
// polygon), in Theta(m+n) time.
func AllFarthestNeighbors(p, q []Point) []int {
	return geom.AllFarthestNeighbors(p, q)
}

// AllFarthestNeighborsPRAM is the parallel version on the given machine.
func AllFarthestNeighborsPRAM(mach *PRAM, p, q []Point) []int {
	return geom.AllFarthestNeighborsPRAM(mach, p, q)
}

// Neighbors solves a visible/invisible neighbor problem for two chains of
// one convex polygon under the given convex obstacles; mach == nil solves
// sequentially (see the geom package for the structure this relies on).
func Neighbors(kind NeighborKind, mach *PRAM, p, q []Point, obstacles []Polygon) NeighborResult {
	return geom.Neighbors(kind, mach, p, q, obstacles)
}

// --- Applications 1 and 2: rectangle problems -------------------------------

// Rect is an axis-parallel rectangle.
type Rect = rect.Rect

// MaxCornerRect solves application 2: the largest-area rectangle with two
// of the points as opposite corners. Theta(n lg n) sequential.
func MaxCornerRect(pts []Point) (area float64, i, j int) {
	return rect.MaxCornerRect(pts)
}

// MaxCornerRectPRAM is the Theta(lg n)-step CRCW version.
func MaxCornerRectPRAM(mach *PRAM, pts []Point) (area float64, i, j int) {
	return rect.MaxCornerRectPRAM(mach, pts)
}

// LargestEmptyRect solves application 1 exactly: the largest axis-parallel
// rectangle inside bounds with no point in its interior. O(n^2).
func LargestEmptyRect(pts []Point, bounds Rect) Rect {
	return rect.LargestEmptyRect(pts, bounds)
}

// LargestAnchoredRect solves the boundary-anchored families of application
// 1 in O(lg n) parallel steps via the ANSV/histogram machinery.
func LargestAnchoredRect(mach *PRAM, pts []Point, bounds Rect) Rect {
	return rect.LargestAnchoredRect(mach, pts, bounds)
}

// --- Application 4: string editing ------------------------------------------

// EditCosts defines the delete/insert/substitute cost model.
type EditCosts = stredit.Costs

// UnitEditCosts is the Levenshtein model.
func UnitEditCosts() EditCosts { return stredit.UnitCosts() }

// EditDistance is the Wagner-Fischer O(st) baseline.
func EditDistance(x, y string, c EditCosts) float64 { return stredit.Distance(x, y, c) }

// EditDistancePRAM runs the grid-DAG Monge engine on the given machine
// (O(lg s lg t) charged time).
func EditDistancePRAM(mach *PRAM, x, y string, c EditCosts) float64 {
	return stredit.DistancePRAM(mach, x, y, c)
}

// EditDistanceHypercube runs the strip combination on simulated networks
// of the given kind, returning the charged-time report.
func EditDistanceHypercube(kind NetworkKind, x, y string, c EditCosts) (float64, stredit.HypercubeReport) {
	return stredit.DistanceHypercube(hc.Kind(kind), x, y, c)
}

// LCSLength returns the longest-common-subsequence length via the edit
// distance identity.
func LCSLength(x, y string) int { return stredit.LCSLength(x, y) }

// --- Monge-powered dynamic programming --------------------------------------

// LWS solves the concave least-weight subsequence problem in O(n lg n):
// f(j) = min_{i<j} f(i) + w(i,j) for a Monge weight w.
func LWS(n int, w func(i, j int) float64) (f []float64, pred []int) {
	return dp.LWS(n, w)
}

// LotSize solves the economic lot-size model (the [AP90] application).
func LotSize(demand, setup, hold []float64) dp.LotSizePlan {
	return dp.LotSize(demand, setup, hold)
}

// OptimalBST returns the optimal binary search tree cost via the
// Knuth-Yao quadrangle-inequality speedup.
func OptimalBST(freq []float64) float64 { return dp.OptimalBST(freq) }

// --- Transportation (the historical root) -----------------------------------

// TransportGreedy runs Hoffman's northwest-corner rule, optimal for Monge
// costs, in O(m+n). An unbalanced problem (supply and demand totals
// differ) returns an error matching ErrUnbalanced.
func TransportGreedy(supply, demand []float64, cost Matrix) (totalCost float64, flows []transport.Flow, err error) {
	return transport.Greedy(supply, demand, cost)
}

// --- Sequential baseline re-exports ------------------------------------------

// RowMinimaDC is the O((m+n) lg m) divide-and-conquer baseline predating
// SMAWK.
func RowMinimaDC(a Matrix) []int { return smawk.RowMinimaDC(a) }

// ANSV solves All Nearest Smaller Values sequentially (the [BBG+89]
// primitive of Lemma 2.2); see pram.ANSV for the O(lg n) parallel version.
func ANSV(vals []float64) (left, right []int) { return pram.ANSVSeq(vals) }
