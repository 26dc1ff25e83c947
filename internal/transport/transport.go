// Package transport implements Hoffman's 1961 observation [Hof61], the
// historical root of the Monge property: for a transportation problem
// whose cost array is Monge, the greedy northwest-corner rule is optimal.
// The greedy solver runs in O(m + n); a successive-shortest-path min-cost
// flow solver provides the optimality oracle for tests.
package transport

import (
	"math"

	"monge/internal/marray"
	"monge/internal/merr"
)

// Flow is one shipment: amount units from source i to sink j.
type Flow struct {
	I, J   int
	Amount float64
}

// Greedy solves the balanced transportation problem with supplies a,
// demands b (sums must match), and Monge cost array c, by the
// northwest-corner rule: repeatedly ship as much as possible on the
// current (i, j) and advance whichever of supply/demand was exhausted.
// For Monge costs the result is optimal (Hoffman). O(m+n) time.
// An unbalanced problem returns an error matching merr.ErrUnbalanced.
func Greedy(a, b []float64, c marray.Matrix) (cost float64, flows []Flow, err error) {
	sa, sb := 0.0, 0.0
	for _, v := range a {
		sa += v
	}
	for _, v := range b {
		sb += v
	}
	if math.Abs(sa-sb) > 1e-9*math.Max(1, math.Abs(sa)) {
		return 0, nil, merr.Errorf(merr.ErrUnbalanced, "transport: supply %v, demand %v", sa, sb)
	}
	ra := append([]float64(nil), a...)
	rb := append([]float64(nil), b...)
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		amt := math.Min(ra[i], rb[j])
		if amt > 0 {
			cost += amt * c.At(i, j)
			flows = append(flows, Flow{I: i, J: j, Amount: amt})
		}
		ra[i] -= amt
		rb[j] -= amt
		if ra[i] <= 1e-12 {
			i++
		}
		if rb[j] <= 1e-12 {
			j++
		}
	}
	return cost, flows, nil
}

// Optimal solves the transportation problem exactly by successive
// shortest paths (Bellman-Ford with potentials), for arbitrary costs.
// Intended as the test oracle; O(V*E*flow-phases).
func Optimal(a, b []float64, c marray.Matrix) float64 {
	m, n := len(a), len(b)
	// Node ids: 0 = source, 1..m = supplies, m+1..m+n = demands,
	// m+n+1 = sink.
	V := m + n + 2
	src, snk := 0, m+n+1
	type edge struct {
		to, rev int
		cap     float64
		cost    float64
	}
	graph := make([][]edge, V)
	addEdge := func(u, v int, cap, cost float64) {
		graph[u] = append(graph[u], edge{to: v, rev: len(graph[v]), cap: cap, cost: cost})
		graph[v] = append(graph[v], edge{to: u, rev: len(graph[u]) - 1, cap: 0, cost: -cost})
	}
	total := 0.0
	for i := 0; i < m; i++ {
		addEdge(src, 1+i, a[i], 0)
		total += a[i]
	}
	for j := 0; j < n; j++ {
		addEdge(m+1+j, snk, b[j], 0)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			addEdge(1+i, m+1+j, math.Inf(1), c.At(i, j))
		}
	}
	costTotal := 0.0
	maxPhases := m*n + m + n + 10
	for phase := 0; total > 1e-12 && phase < maxPhases; phase++ {
		// Bellman-Ford: V-1 full relaxation rounds (deterministic
		// termination; an epsilon guards against float-noise cycling).
		dist := make([]float64, V)
		prevV := make([]int, V)
		prevE := make([]int, V)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[src] = 0
		for round := 0; round < V-1; round++ {
			changed := false
			for u := 0; u < V; u++ {
				if math.IsInf(dist[u], 1) {
					continue
				}
				for ei, e := range graph[u] {
					if e.cap > 1e-12 && dist[u]+e.cost < dist[e.to]-1e-9 {
						dist[e.to] = dist[u] + e.cost
						prevV[e.to] = u
						prevE[e.to] = ei
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		if math.IsInf(dist[snk], 1) {
			break
		}
		// Bottleneck along the path.
		push := total
		for v := snk; v != src; v = prevV[v] {
			if cp := graph[prevV[v]][prevE[v]].cap; cp < push {
				push = cp
			}
		}
		for v := snk; v != src; v = prevV[v] {
			e := &graph[prevV[v]][prevE[v]]
			e.cap -= push
			graph[v][e.rev].cap += push
		}
		costTotal += push * dist[snk]
		total -= push
	}
	return costTotal
}
