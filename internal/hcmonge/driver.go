package hcmonge

import (
	hc "monge/internal/hypercube"
	"monge/internal/merr"
	"monge/internal/obs"
)

// countSearch bumps the driver-level Searches counter of the "hcmonge"
// observability site and opens a span named after the entry point on the
// machine's tracer; callers defer the returned closer around the whole
// search so the trace shows one algorithm-phase lane above the per-step
// machine lanes.
func countSearch(mach *hc.Machine, name string) func() {
	if o := obs.Global(); o != nil {
		o.Site("hcmonge").Add(obs.Searches, 1)
	}
	return mach.TraceSpan("hcmonge", name)
}

// EntryFunc evaluates one array entry from a row input and a column input,
// the O(1) evaluation the paper's distributed input model assumes.
type EntryFunc[V, W any] func(V, W) float64

// MachineFor returns a machine of the given kind sized for an m x n search
// (4*(m+n) processors rounded to a power of two, the routing headroom one
// recursion level uses).
func MachineFor(kind hc.Kind, m, n int) *hc.Machine {
	return hc.New(kind, dimFor(m, n))
}

// checkDim throws merr.ErrMachineTooSmall when mach cannot host an m x n
// search (it has fewer processors than MachineFor would allocate).
func checkDim(mach *hc.Machine, m, n int) {
	if need := dimFor(m, n); mach.Dim() < need {
		merr.Throwf(merr.ErrMachineTooSmall,
			"hcmonge: %d x %d search needs a %d-dimensional machine, have %d dimensions",
			m, n, need, mach.Dim())
	}
}

// RowMinimaOn computes, for each row i of the m x n Monge array
// a[i,j] = f(v[i], w[j]), the column index of its leftmost minimum on
// mach, whose counters then hold the charged time, communication, and
// work. The machine must be at least MachineFor-sized for the inputs
// (merr.ErrMachineTooSmall is thrown otherwise); the caller may attach a
// context, fault injector, or private pool before the run.
//
// With Theorem 3.2's bounds in mind: on an O(n)-processor hypercube the
// measured time is O(lg n) for an n x n array (the lg lg n factor in the
// paper's statement comes from processor reduction, which this simulation
// replaces by machine sizing; see the package comment).
func RowMinimaOn[V, W any](mach *hc.Machine, v []V, w []W, f EntryFunc[V, W]) []int {
	return searchVW(mach, v, w, f, false, func(j int) int { return j })
}

// MongeRowMaximaOn computes leftmost row maxima of a MONGE array (the
// Theorem 3.2 / Table 1.1 problem) on mach: the column order is reversed
// (making the array inverse-Monge), entries are negated, and the search
// runs with rightmost tie-breaking, which corresponds to leftmost in the
// original order. The returned indices are in the original column order.
func MongeRowMaximaOn[V, W any](mach *hc.Machine, v []V, w []W, f EntryFunc[V, W]) []int {
	n := len(w)
	rev := make([]W, n)
	for j := range rev {
		rev[j] = w[n-1-j]
	}
	neg := func(vi V, wj W) float64 { return -f(vi, wj) }
	return searchVW(mach, v, rev, neg, true, func(j int) int { return n - 1 - j })
}

// searchVW places the inputs in the paper's distributed model (v[i] and
// w[i] in processor i's memory), runs the recursion, and extracts the
// answers. colID maps local column positions to reported indices.
func searchVW[V, W any](mach *hc.Machine, v []V, w []W, f EntryFunc[V, W], tieRight bool, colID func(j int) int) []int {
	m, n := len(v), len(w)
	checkDim(mach, m, n)
	defer countSearch(mach, "search")()
	out := make([]int, m)
	if m == 0 || n == 0 {
		return out
	}
	vvec := hc.NewVec(mach, func(p int) V {
		if p < m {
			return v[p]
		}
		var zero V
		return zero
	})
	wvec := hc.NewVec(mach, func(p int) wcell[W] {
		if p < n {
			return wcell[W]{w: w[p], col: colID(p)}
		}
		return wcell[W]{col: -1}
	})
	pr := &problem[V, W]{f: f, tieRight: tieRight}
	r := pr.solve(mach, m, n, vvec, wvec)
	snap := r.Snapshot()
	for i := 0; i < m; i++ {
		out[i] = snap[i].col
	}
	return out
}
