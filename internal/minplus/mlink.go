package minplus

// The shortest M-link path problem (arXiv 2408.00227 territory): in
// the complete DAG on nodes 0..n with Monge edge weights w(i,j) for
// i < j, find the cheapest path from 0 to n using exactly M edges.
// Two exact strategies share the engine's driver:
//
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
// Both strategies use the same conventions: +Inf cost and a nil path
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

// autoLayeredLinks is the largest M that StrategyAuto answers with the
// layered sweep. The sweep's M SMAWK passes read 3.5-4.7·M·(2n+2)
// weights (TestMLinkPathEvaluations); the λ search's LWS probes do not
// multiply with M. On integer Monge weights the two take about the
// same time at M = 16 for n = 256 and 1024, and λ is twice as fast at
// M = 32; on a convex-gap weight the sweep stays ahead to M = 32 at
// n >= 1024 (EXPERIMENTS.md, M-link strategies).
const autoLayeredLinks = 16

// Strategy selects the M-link algorithm.
type Strategy int

const (
	// StrategyAuto runs the layered sweep for M <= autoLayeredLinks
	// and otherwise the λ search with its layered fallback.
	StrategyAuto Strategy = iota
	// StrategyLayered forces the M-sweep layered DP.
	StrategyLayered
	// StrategyLambda forces the Lagrangian bisection (layered fallback
	// on a duality gap).
	StrategyLambda
)

// String names the strategy as the bench output spells it.
func (s Strategy) String() string {
	switch s {
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
	if s == StrategyLayered || (s == StrategyAuto && M <= autoLayeredLinks) {
		return e.mlinkLayered(n, w, M)
	}
	return e.mlinkLambda(n, w, M)
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
