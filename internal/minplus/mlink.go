package minplus

// The shortest M-link path problem (arXiv 2408.00227 territory): in
// the complete DAG on nodes 0..n with Monge edge weights w(i,j) for
// i < j, find the cheapest path from 0 to n using exactly M edges.
// Three exact strategies share the engine:
//
//   - Squaring: the 1-link weight matrix D (upper-triangular, +Inf
//     below the diagonal) is raised to D^⊗M by binary exponentiation
//     of run-sparse Products; the witness tree of the multiplication
//     order reconstructs the path. O(n² lg M) evaluations — the route
//     that exercises the ⊗ engine itself, right for small M.
//   - Layered: M SMAWK sweeps of the layer recurrence f_l(j) =
//     min_{i<j} f_{l-1}(i) + w(i,j). Each sweep is one (n+1)×(n+1)
//     totally monotone row-minima query (the same shape every layer,
//     so one retained machine serves all M), O(nM) evaluations total
//     against the O(n²M) reference DP.
//   - Lambda: the Lagrangian relaxation — bisect a per-link penalty λ
//     and solve the unconstrained least-weight subsequence for w+λ
//     (internal/dp.LWS, O(n lg n) per probe). When the probe lands on
//     exactly M links, complementary slackness makes
//     f_λ(n) − λM the exact M-link optimum; a duality gap (no λ hits
//     M) falls back to the layered sweep, keeping the strategy exact.
//
// All strategies use the same conventions: +Inf cost and a nil path
// when no M-link path exists (M > n, for instance), leftmost
// tie-breaking on predecessors.

import (
	"math"

	"monge/internal/dp"
	"monge/internal/marray"
	"monge/internal/merr"
)

// Weight is a link weight w(i, j) for 0 <= i < j <= n, required to
// satisfy the Monge (concave quadrangle) inequality
// w(i,j) + w(i',j') <= w(i,j') + w(i',j) for i < i' < j < j'.
type Weight func(i, j int) float64

// CheckLinkWeightSampled screens an M-link weight over nodes 0..n with
// O(n) deterministic adjacent-quadruple probes of the concave quadrangle
// inequality; like the sampled matrix screens it never rejects a valid
// weight. A nil weight is ErrDimensionMismatch.
func CheckLinkWeightSampled(n int, w Weight) error {
	if w == nil {
		return merr.Errorf(merr.ErrDimensionMismatch, "minplus: nil link weight")
	}
	step := n / 32
	if step < 1 {
		step = 1
	}
	for i := 0; i+3 <= n; i += step {
		for _, j := range [3]int{i + 2, (i + 2 + n) / 2, n - 1} {
			if j < i+2 || j+1 > n {
				continue
			}
			if w(i, j)+w(i+1, j+1) > w(i, j+1)+w(i+1, j) {
				return merr.Errorf(merr.ErrNotMonge,
					"minplus: link weight violates the Monge inequality at quadruple (%d,%d,%d,%d)", i, i+1, j, j+1)
			}
		}
	}
	return nil
}

// Strategy selects the M-link algorithm.
type Strategy int

const (
	// StrategyAuto squares for small M on small graphs (the regime
	// where O(n² lg M) is cheap and the ⊗ engine shines) and otherwise
	// runs the λ search with its layered fallback.
	StrategyAuto Strategy = iota
	// StrategySquaring forces repeated ⊗-squaring of the link matrix.
	StrategySquaring
	// StrategyLayered forces the M-sweep layered DP.
	StrategyLayered
	// StrategyLambda forces the Lagrangian bisection (layered fallback
	// on a duality gap).
	StrategyLambda
)

// String names the strategy as the bench output spells it.
func (s Strategy) String() string {
	switch s {
	case StrategySquaring:
		return "squaring"
	case StrategyLayered:
		return "layered"
	case StrategyLambda:
		return "lambda"
	}
	return "auto"
}

// MLinkPath returns the cost of the cheapest exactly-M-link path
// 0 -> n and its node sequence (length M+1), choosing the strategy
// automatically. No such path yields (+Inf, nil).
func (e *Engine) MLinkPath(n int, w Weight, M int) (float64, []int) {
	return e.MLinkPathStrategy(n, w, M, StrategyAuto)
}

// MLinkPathStrategy is MLinkPath under an explicit strategy.
func (e *Engine) MLinkPathStrategy(n int, w Weight, M int, s Strategy) (float64, []int) {
	if n < 1 || M < 1 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"minplus: MLinkPath(n=%d, M=%d); need n >= 1 and M >= 1", n, M)
	}
	if M > n {
		// A path of M forward links visits M+1 strictly increasing
		// nodes in [0, n] — impossible beyond M = n.
		return inf, nil
	}
	switch s {
	case StrategySquaring:
		return e.mlinkSquaring(n, w, M)
	case StrategyLayered:
		return e.mlinkLayered(n, w, M)
	case StrategyLambda:
		return e.mlinkLambda(n, w, M)
	}
	if M <= 8 && n <= 1024 {
		return e.mlinkSquaring(n, w, M)
	}
	return e.mlinkLambda(n, w, M)
}

// linkMatrix is the 1-link weight matrix D[i][j] = w(i,j) for i < j,
// +Inf at and below the diagonal, over nodes 0..n.
func linkMatrix(n int, w Weight) marray.Matrix {
	return marray.Func{M: n + 1, N: n + 1, F: func(i, j int) float64 {
		if i < j {
			return w(i, j)
		}
		return inf
	}}
}

// mlinkSquaring computes D^⊗M by binary exponentiation and walks the
// witness tree of the multiplication order to reconstruct the path.
func (e *Engine) mlinkSquaring(n int, w Weight, M int) (float64, []int) {
	// powNode records how each matrix in the exponentiation tree was
	// formed: a leaf is the 1-link base, an inner node the ⊗ of its
	// children, whose Product witnesses split any (i, k) pair.
	type powNode struct {
		mat         marray.Matrix
		prod        *Product // nil for the base
		left, right *powNode
	}
	mul := func(x, y *powNode) *powNode {
		p := e.multiply(x.mat, y.mat, false)
		return &powNode{mat: p, prod: p, left: x, right: y}
	}
	cur := &powNode{mat: linkMatrix(n, w)}
	var result *powNode
	for bits := M; ; {
		if bits&1 == 1 {
			if result == nil {
				result = cur
			} else {
				result = mul(result, cur)
			}
		}
		bits >>= 1
		if bits == 0 {
			break
		}
		cur = mul(cur, cur)
	}
	cost := result.mat.At(0, n)
	if math.IsInf(cost, 1) {
		return inf, nil
	}
	path := make([]int, 1, M+1)
	var rec func(nd *powNode, i, k int)
	rec = func(nd *powNode, i, k int) {
		if nd.prod == nil {
			path = append(path, k)
			return
		}
		j := nd.prod.Witness(i, k)
		rec(nd.left, i, j)
		rec(nd.right, j, k)
	}
	rec(result, 0, n)
	return cost, path
}

// mlinkLayered runs M row-minima sweeps of the layer matrix
// G_l[j][i] = f_{l-1}(i) + w(i,j) for i < j (+Inf otherwise). G_l is
// totally monotone for leftmost minima — the finite prefixes grow with
// j and the Monge inequality transfers the strict comparisons — so
// each sweep is one O(n)-evaluation SMAWK query of a fixed shape.
func (e *Engine) mlinkLayered(n int, w Weight, M int) (float64, []int) {
	nn := n + 1
	fPrev := make([]float64, nn)
	fNext := make([]float64, nn)
	for j := 1; j < nn; j++ {
		fPrev[j] = inf
	}
	var g marray.Matrix = marray.Func{M: nn, N: nn, F: func(j, i int) float64 {
		if i >= j {
			return inf
		}
		return fPrev[i] + w(i, j)
	}}
	pred := make([][]int32, M+1)
	wit := make([]int, nn)
	for l := 1; l <= M; l++ {
		e.d.RowMinimaInto(g, wit)
		pl := make([]int32, nn)
		for j := 0; j < nn; j++ {
			v := inf
			if i := wit[j]; i < j {
				v = fPrev[i] + w(i, j)
			}
			if math.IsInf(v, 1) {
				pl[j], fNext[j] = -1, inf
			} else {
				pl[j], fNext[j] = int32(wit[j]), v
			}
		}
		pred[l] = pl
		fPrev, fNext = fNext, fPrev
	}
	cost := fPrev[n]
	if math.IsInf(cost, 1) {
		return inf, nil
	}
	path := make([]int, M+1)
	path[M] = n
	for l := M; l >= 1; l-- {
		path[l-1] = int(pred[l][path[l]])
	}
	return cost, path
}

// mlinkLambda bisects the per-link penalty. The link count of the
// unconstrained optimum is nonincreasing in λ (from n links as
// λ → -∞ down to 1 as λ → +∞), so a bracket always exists; when no
// probe lands on exactly M links — a duality gap from non-strict
// concavity — the layered sweep answers exactly instead.
func (e *Engine) mlinkLambda(n int, w Weight, M int) (float64, []int) {
	solve := func(lambda float64) (cost float64, links int, chain []int) {
		f, pred := dp.LWS(n, func(i, j int) float64 { return w(i, j) + lambda })
		chain = dp.Chain(pred)
		return f[n], len(chain) - 1, chain
	}
	done := func(cost, lambda float64, chain []int) (float64, []int) {
		// Complementary slackness: subtracting the penalty actually
		// paid recovers the exact M-link cost.
		return cost - lambda*float64(M), chain
	}
	lo, hi := -1.0, 1.0
	for i := 0; ; i++ {
		cost, links, chain := solve(lo)
		if links == M {
			return done(cost, lo, chain)
		}
		if links > M || i >= 64 {
			break
		}
		lo *= 2
	}
	for i := 0; ; i++ {
		cost, links, chain := solve(hi)
		if links == M {
			return done(cost, hi, chain)
		}
		if links < M || i >= 64 {
			break
		}
		hi *= 2
	}
	for i := 0; i < 100 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		cost, links, chain := solve(mid)
		if links == M {
			return done(cost, mid, chain)
		}
		if links > M {
			lo = mid
		} else {
			hi = mid
		}
	}
	return e.mlinkLayered(n, w, M)
}

// MLinkBrute is the O(n²M) reference DP with the same conventions as
// the engine strategies: leftmost predecessor on ties, (+Inf, nil)
// when no M-link path exists. It accepts M > n (the DP yields +Inf
// naturally), so tests can pin the convention itself.
func MLinkBrute(n int, w Weight, M int) (float64, []int) {
	if n < 1 || M < 1 {
		merr.Throwf(merr.ErrDimensionMismatch,
			"minplus: MLinkBrute(n=%d, M=%d); need n >= 1 and M >= 1", n, M)
	}
	nn := n + 1
	fPrev := make([]float64, nn)
	fNext := make([]float64, nn)
	for j := 1; j < nn; j++ {
		fPrev[j] = inf
	}
	pred := make([][]int32, M+1)
	for l := 1; l <= M; l++ {
		pl := make([]int32, nn)
		for j := 0; j < nn; j++ {
			best, bi := inf, int32(-1)
			for i := 0; i < j; i++ {
				if v := fPrev[i] + w(i, j); v < best {
					best, bi = v, int32(i)
				}
			}
			fNext[j], pl[j] = best, bi
		}
		pred[l] = pl
		fPrev, fNext = fNext, fPrev
	}
	cost := fPrev[n]
	if math.IsInf(cost, 1) {
		return inf, nil
	}
	path := make([]int, M+1)
	path[M] = n
	for l := M; l >= 1; l-- {
		path[l-1] = int(pred[l][path[l]])
	}
	return cost, path
}
