package hcmonge

import (
	"math"

	hc "monge/internal/hypercube"
	"monge/internal/merr"
)

// Theorem 3.3: row minima of staircase-Monge arrays on the hypercube (and,
// through the network adapters, on cube-connected cycles and
// shuffle-exchange). The paper omits the proof entirely; this
// implementation follows the same decomposition as the PRAM algorithm of
// Theorem 2.3 -- sample rows, recurse, and classify the remaining rows'
// candidates into Monge rectangles, staircase tails, and reopened
// ("crossed") staircase windows -- with the data movement realised by the
// hypercube primitives:
//
//   - sampled rows are concentrated by an isotone route;
//   - Monge-rectangle jobs have column windows that ascend across gaps, so
//     one ascending monotone read stages their inputs;
//   - staircase-tail jobs have windows that DESCEND across gaps (each
//     starts at the next sampled row's boundary); allocating their blocks
//     in reverse gap order makes the column read ascending and the row
//     read globally nonincreasing, which MonotoneReadDec handles, with an
//     in-block reversal (Reverse + shift) restoring row order;
//   - crossed jobs share their left edge, so no single allocation order
//     makes their reads monotone; their staging is relabelled directly and
//     charged the cost of one concentrate/distribute round trip (3d+3
//     steps), a documented simulation shortcut (EXPERIMENTS.md).

// stairV carries a row's input value and its blocked-column boundary,
// local to the current column window.
type stairV[V any] struct {
	v     V
	bound int
}

type stairProblem[V, W any] struct {
	f func(V, W) float64
}

// stairJob describes one feasible-region search.
type stairJob struct {
	rowLo, rk  int // global row range [rowLo, rowLo+rk)
	jLo, width int // column window, local to the current problem
	monge      bool
	rev        bool // staged with descending row order (tail jobs)
	base, size int  // staging block, filled by stageAscending
}

// StaircaseRowMinimaOn computes, for each row of the m x n
// staircase-Monge array a[i,j] = f(v[i], w[j]) for j < bound[i] (+Inf
// beyond), the column of its leftmost finite minimum, or -1 for fully
// blocked rows, on mach (Theorem 3.3 / Table 1.2, "hypercube, etc."
// row). bound must be nonincreasing. The machine must be at least
// MachineFor-sized (merr.ErrMachineTooSmall is thrown otherwise); the
// caller may attach a context or fault injector before the run.
func StaircaseRowMinimaOn[V, W any](mach *hc.Machine, v []V, bound []int, w []W, f EntryFunc[V, W]) []int {
	m, n := len(v), len(w)
	checkDim(mach, m, n)
	defer countSearch(mach, "staircase")()
	out := make([]int, m)
	if m == 0 || n == 0 {
		for i := range out {
			out[i] = -1
		}
		return out
	}
	vvec := hc.NewVec(mach, func(p int) stairV[V] {
		if p < m {
			b := bound[p]
			if b > n {
				b = n
			}
			if b < 0 {
				b = 0
			}
			return stairV[V]{v: v[p], bound: b}
		}
		return stairV[V]{}
	})
	wvec := hc.NewVec(mach, func(p int) wcell[W] {
		if p < n {
			return wcell[W]{w: w[p], col: p}
		}
		return wcell[W]{col: -1}
	})
	pr := &stairProblem[V, W]{f: f}
	r := pr.solve(mach, m, n, vvec, wvec)
	snap := r.Snapshot()
	for i := 0; i < m; i++ {
		out[i] = snap[i].col
	}
	return out
}

func blockedRes() res { return res{val: math.Inf(1), col: -1, loc: math.MaxInt32} }

func pickStair(a, b res) res {
	if b.val < a.val {
		return b
	}
	if a.val < b.val {
		return a
	}
	if b.loc < a.loc {
		return b
	}
	return a
}

// clampBound rebases a row boundary into a [jLo, jLo+width) window.
func clampBound(bound, jLo, width int) int {
	b := bound - jLo
	if b < 0 {
		b = 0
	}
	if b > width {
		b = width
	}
	return b
}

// solve computes window-local minima of the k x nc staircase array on
// mach. Invariant: vvec cell i (i < k) holds row i's input and boundary
// (local to this window); wvec cell j (j < nc) holds column j. Results
// (col == -1 if the row is blocked in the window) land at cells 0..k-1.
func (pr *stairProblem[V, W]) solve(mach *hc.Machine, k, nc int, vvec *hc.Vec[stairV[V]], wvec *hc.Vec[wcell[W]]) *hc.Vec[res] {
	if k == 0 || nc == 0 {
		return hc.NewVec(mach, func(int) res { return blockedRes() })
	}
	if k <= 2 || nc <= 4 {
		return pr.base(mach, k, nc, vvec, wvec)
	}

	s := nextPow2(isqrt(k))
	if s < 2 {
		s = 2
	}
	u := k / s

	// Concentrate and solve the sampled rows (recursively, same window).
	svOpt := hc.Send(mach,
		func(p int) bool { return p < u*s && (p+1)%s == 0 },
		func(p int) stairV[V] { return vvec.Get(p) },
		func(p int) int { return (p+1)/s - 1 },
	)
	sv := hc.NewVec(mach, func(p int) stairV[V] {
		if o := svOpt.Get(p); o.Ok {
			return o.Val
		}
		return stairV[V]{}
	})
	sres := pr.solve(mach, u, nc, sv, wvec)
	sSnap := sres.Snapshot()[:u]
	svSnap := sv.Snapshot()[:u]

	// Classification (one charged local step, as in the PRAM version).
	mach.Local(1, func(int) {})
	vSnap := vvec.Snapshot()[:k]

	out := make([]res, k)
	for i := range out {
		out[i] = blockedRes()
	}
	for g := 0; g < u; g++ {
		out[(g+1)*s-1] = sSnap[g]
	}

	var mongeJobs, tailJobs, crossJobs []stairJob
	prevRow := -1
	for g := 0; g <= u; g++ {
		rowHi := k
		lb := 0
		var haveBelow bool
		var cq, effq int
		if g > 0 && sSnap[g-1].col >= 0 {
			lb = sSnap[g-1].loc
		}
		if g < u {
			rowHi = (g+1)*s - 1
			if sSnap[g].col >= 0 {
				haveBelow = true
				cq = sSnap[g].loc
				effq = minInt(svSnap[g].bound, nc)
			}
		}
		// The tail region beyond the lower sampled row's boundary can be
		// clipped at the UPPER sampled row's boundary (gap rows cannot
		// extend past it, boundaries being nonincreasing); the clipped
		// windows tile disjointly in reverse gap order, which keeps the
		// staging reads monotone.
		prevEff := nc
		if g > 0 {
			prevEff = minInt(svSnap[g-1].bound, nc)
		}
		lo := prevRow + 1
		prevRow = rowHi
		if lo >= rowHi {
			continue
		}
		split := lo
		for split < rowHi && minInt(vSnap[split].bound, nc) > lb {
			split++
		}
		nClean, nCross := split-lo, rowHi-split
		if haveBelow {
			if nClean > 0 && lb <= cq {
				mongeJobs = append(mongeJobs, stairJob{rowLo: lo, rk: nClean, jLo: lb, width: cq - lb + 1, monge: true})
			}
			if effq < prevEff {
				tailJobs = append(tailJobs, stairJob{rowLo: lo, rk: rowHi - lo, jLo: effq, width: prevEff - effq})
			}
			if nCross > 0 {
				crossJobs = append(crossJobs, stairJob{rowLo: split, rk: nCross, jLo: 0, width: minInt(cq+1, nc)})
			}
		} else {
			if nClean > 0 {
				crossJobs = append(crossJobs, stairJob{rowLo: lo, rk: nClean, jLo: lb, width: nc - lb})
			}
			if nCross > 0 {
				crossJobs = append(crossJobs, stairJob{rowLo: split, rk: nCross, jLo: 0, width: nc})
			}
		}
	}

	offer := func(jb stairJob, sub []res) {
		for t := 0; t < jb.rk; t++ {
			if sub[t].col >= 0 && pickStair(sub[t], out[jb.rowLo+t]) == sub[t] {
				out[jb.rowLo+t] = sub[t]
			}
		}
	}

	if len(mongeJobs) > 0 {
		// The windows of the Monge rectangles follow the sampled minima,
		// which in a staircase array are NOT monotone (the "bracketed"
		// minima of Figure 2.2); the paper's ANSV-based allocation handles
		// this on the PRAM, and here the staging is relabelled with a
		// charged concentrate/distribute round trip.
		mach.Local(3*mach.Dim()+3, func(int) {})
		results := make([][]res, len(mongeJobs))
		dims := make([]int, len(mongeJobs))
		for i, jb := range mongeJobs {
			dims[i] = dimFor(jb.rk, jb.width)
		}
		mach.ParallelDo(dims, func(i int, sub *hc.Machine) {
			jb := mongeJobs[i]
			results[i] = pr.runOneJob(sub, jb,
				func(q int) stairV[V] { return vSnap[jb.rowLo+q] },
				func(q int) wcell[W] { return wvec.Get(jb.jLo + q) },
			)
		})
		for i, jb := range mongeJobs {
			offer(jb, results[i])
		}
	}
	if len(tailJobs) > 0 {
		// Reverse gap order makes the column windows ascend; rows are
		// staged in descending order and restored inside each block.
		rev := make([]stairJob, len(tailJobs))
		for i := range tailJobs {
			rev[i] = tailJobs[len(tailJobs)-1-i]
			rev[i].rev = true
		}
		vF, wF := pr.stageAscending(mach, rev, vvec, wvec, k, nc)
		pr.runJobs(mach, rev, vF, wF, offer)
	}
	if len(crossJobs) > 0 {
		// Charged relabel (see package comment).
		mach.Local(3*mach.Dim()+3, func(int) {})
		results := make([][]res, len(crossJobs))
		dims := make([]int, len(crossJobs))
		for i, jb := range crossJobs {
			dims[i] = dimFor(jb.rk, jb.width)
		}
		mach.ParallelDo(dims, func(i int, sub *hc.Machine) {
			jb := crossJobs[i]
			results[i] = pr.runOneJob(sub, jb,
				func(q int) stairV[V] { return vSnap[jb.rowLo+q] },
				func(q int) wcell[W] { return wvec.Get(jb.jLo + q) },
			)
		})
		for i, jb := range crossJobs {
			offer(jb, results[i])
		}
	}

	return hc.NewVec(mach, func(p int) res {
		if p < k {
			return out[p]
		}
		return blockedRes()
	})
}

// stageAscending packs each job's inputs into consecutive blocks and
// fetches them with monotone reads. The caller orders jobs so the column
// windows ascend; rows ascend too unless the jobs are marked rev, in which
// case rows are staged in globally nonincreasing order (descending across
// blocks, descending within each block) and read via MonotoneReadDec.
func (pr *stairProblem[V, W]) stageAscending(mach *hc.Machine, jobs []stairJob, vvec *hc.Vec[stairV[V]], wvec *hc.Vec[wcell[W]], k, nc int) (vF *hc.Vec[stairV[V]], wF *hc.Vec[wcell[W]]) {
	off := 0
	for i := range jobs {
		jobs[i].base = off
		jobs[i].size = maxInt(jobs[i].rk, jobs[i].width)
		off += jobs[i].size
	}
	if off > mach.Size() {
		merr.Throwf(merr.ErrMachineTooSmall,
			"hcmonge: staircase staging needs %d processors, have %d", off, mach.Size())
	}
	// Offsets are a prefix scan over the job sizes; charge it.
	scratch := hc.NewVec(mach, func(p int) int {
		if p < len(jobs) {
			return jobs[p].size
		}
		return 0
	})
	hc.Scan(mach, scratch, func(a, b int) int { return a + b })

	// Descriptor spread: monotone route to block bases + segmented copy.
	descOpt := hc.Send(mach,
		func(p int) bool { return p < len(jobs) },
		func(p int) stairJob { return jobs[p] },
		func(p int) int { return jobs[p].base },
	)
	desc := hc.NewVec(mach, func(p int) hc.Opt[stairJob] { return descOpt.Get(p) })
	heads := hc.NewVec(mach, func(p int) bool { return descOpt.Get(p).Ok })
	hc.SegScan(mach, desc, heads, func(a, b hc.Opt[stairJob]) hc.Opt[stairJob] {
		if b.Ok {
			return b
		}
		return a
	})
	mach.Local(1, func(p int) {
		if d := desc.Get(p); d.Ok && p-d.Val.base >= d.Val.size {
			desc.Set(p, hc.Opt[stairJob]{})
		}
	})

	// Column fetch (ascending windows).
	idxW := hc.NewVec(mach, func(p int) int {
		if d := desc.Get(p); d.Ok {
			return d.Val.jLo + minInt(p-d.Val.base, d.Val.width-1)
		}
		return 0
	})
	hc.Scan(mach, idxW, maxInt)
	wF = hc.MonotoneRead(mach, wvec, idxW)

	// Row fetch.
	reversed := len(jobs) > 0 && jobs[0].rev
	if !reversed {
		idxV := hc.NewVec(mach, func(p int) int {
			if d := desc.Get(p); d.Ok {
				return d.Val.rowLo + minInt(p-d.Val.base, d.Val.rk-1)
			}
			return 0
		})
		hc.Scan(mach, idxV, maxInt)
		vF = hc.MonotoneRead(mach, vvec, idxV)
	} else {
		idxV := hc.NewVec(mach, func(p int) int {
			if d := desc.Get(p); d.Ok {
				return d.Val.rowLo + d.Val.rk - 1 - minInt(p-d.Val.base, d.Val.rk-1)
			}
			return k - 1
		})
		hc.Scan(mach, idxV, minInt)
		vF = hc.MonotoneReadDec(mach, vvec, idxV)
	}
	return vF, wF
}

// runJobs launches one sub-machine per job, restoring staged row order for
// rev jobs, and merges the results.
func (pr *stairProblem[V, W]) runJobs(mach *hc.Machine, jobs []stairJob, vF *hc.Vec[stairV[V]], wF *hc.Vec[wcell[W]], offer func(stairJob, []res)) {
	results := make([][]res, len(jobs))
	dims := make([]int, len(jobs))
	for i, jb := range jobs {
		dims[i] = dimFor(jb.rk, jb.width)
	}
	mach.ParallelDo(dims, func(i int, sub *hc.Machine) {
		jb := jobs[i]
		getV := func(q int) stairV[V] { return vF.Get(jb.base + q) }
		if jb.rev {
			// Staged rows are descending; reverse within the sub-machine
			// (d exchanges) and shift down (a monotone route).
			raw := hc.NewVec(sub, func(q int) stairV[V] {
				if q < jb.rk {
					return vF.Get(jb.base + q)
				}
				return stairV[V]{}
			})
			rv := hc.Reverse(sub, raw)
			shift := sub.Size() - jb.rk
			fixedOpt := hc.Send(sub,
				func(p int) bool { return p >= shift },
				func(p int) stairV[V] { return rv.Get(p) },
				func(p int) int { return p - shift },
			)
			getV = func(q int) stairV[V] {
				if o := fixedOpt.Get(q); o.Ok {
					return o.Val
				}
				return stairV[V]{}
			}
		}
		results[i] = pr.runOneJob(sub, jb, getV,
			func(q int) wcell[W] { return wF.Get(jb.base + q) },
		)
	})
	for i, jb := range jobs {
		offer(jb, results[i])
	}
}

// runOneJob executes one feasible-region search on its sub-machine: plain
// Monge recursion for rectangle jobs, staircase recursion otherwise.
// getV/getW supply the staged inputs by local index; boundaries are
// rebased into the job's window. Results come back in the PARENT's column
// space.
func (pr *stairProblem[V, W]) runOneJob(sub *hc.Machine, jb stairJob, getV func(int) stairV[V], getW func(int) wcell[W]) []res {
	lw := hc.NewVec(sub, func(q int) wcell[W] {
		if q < jb.width {
			return getW(q)
		}
		return wcell[W]{col: -1}
	})
	var snap []res
	if jb.monge {
		plain := &problem[stairV[V], W]{f: func(vc stairV[V], wj W) float64 {
			return pr.f(vc.v, wj)
		}}
		lv := hc.NewVec(sub, func(q int) stairV[V] {
			if q < jb.rk {
				return getV(q)
			}
			return stairV[V]{}
		})
		snap = plain.solve(sub, jb.rk, jb.width, lv, lw).Snapshot()
	} else {
		lv := hc.NewVec(sub, func(q int) stairV[V] {
			if q < jb.rk {
				vc := getV(q)
				vc.bound = clampBound(vc.bound, jb.jLo, jb.width)
				return vc
			}
			return stairV[V]{}
		})
		snap = pr.solve(sub, jb.rk, jb.width, lv, lw).Snapshot()
	}
	rr := make([]res, jb.rk)
	for t := 0; t < jb.rk; t++ {
		rr[t] = snap[t]
		if rr[t].col >= 0 {
			rr[t].loc += jb.jLo
		}
	}
	return rr
}

// base handles narrow or short subproblems. For nc <= 4 the few columns
// are broadcast and each row's processor scans them locally; for k <= 2
// each row is broadcast and a tree reduction over all dimensions finds its
// minimum.
func (pr *stairProblem[V, W]) base(mach *hc.Machine, k, nc int, vvec *hc.Vec[stairV[V]], wvec *hc.Vec[wcell[W]]) *hc.Vec[res] {
	out := make([]res, k)
	if nc <= 4 {
		cols := make([]*hc.Vec[wcell[W]], nc)
		for j := 0; j < nc; j++ {
			cj := hc.NewVec(mach, func(p int) wcell[W] { return wvec.Get(p) })
			hc.Broadcast(mach, j, cj)
			cols[j] = cj
		}
		resVec := hc.NewVec(mach, func(int) res { return blockedRes() })
		mach.Local(nc, func(p int) {
			if p >= k {
				return
			}
			vc := vvec.Get(p)
			best := blockedRes()
			for j := 0; j < nc && j < vc.bound; j++ {
				wc := cols[j].Get(p)
				best = pickStair(best, res{val: pr.f(vc.v, wc.w), col: wc.col, loc: j})
			}
			resVec.Set(p, best)
		})
		return resVec
	}
	// k <= 2: per-row broadcast + reduction.
	for r := 0; r < k; r++ {
		vr := hc.NewVec(mach, func(p int) stairV[V] { return vvec.Get(p) })
		hc.Broadcast(mach, r, vr)
		cand := hc.NewVec(mach, func(int) res { return blockedRes() })
		mach.Local(1, func(p int) {
			vc := vr.Get(p)
			if p >= nc || p >= vc.bound {
				return
			}
			wc := wvec.Get(p)
			cand.Set(p, res{val: pr.f(vc.v, wc.w), col: wc.col, loc: p})
		})
		for kd := 0; kd < mach.Dim(); kd++ {
			ex := hc.Exchange(mach, kd, cand)
			bit := 1 << kd
			mach.Local(1, func(p int) {
				if p&bit == 0 {
					cand.Set(p, pickStair(cand.Get(p), ex.Get(p)))
				}
			})
		}
		out[r] = cand.Get(0)
	}
	return hc.NewVec(mach, func(p int) res {
		if p < k {
			return out[p]
		}
		return blockedRes()
	})
}
