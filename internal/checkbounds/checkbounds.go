// Package checkbounds is the empirical complexity-regression harness: it
// re-measures every row of the paper's Tables 1.1-1.3 (model x algorithm
// x size ladder) on the simulated machines and checks that the measured
// charged time grows like the claimed bound.
//
// The check is a flatness assertion: for each row, the shape ratio
// t(n)/bound(n) is computed at every ladder size, and the row passes when
// max ratio / min ratio stays under a tolerance (2.0 by default). A
// correct O(lg n) implementation keeps the ratio flat; an accidental
// Theta(n) regression grows it by ~3.1x over the 128->512 ladder and
// fails. Inputs come from per-row deterministic seeds, so all measured
// values are exactly reproducible and can be pinned in EXPERIMENTS.md
// (see the golden test at the repository root).
//
// The harness is driven by TestCheckBounds at the repository root, which
// also exports the full measurement as BENCH_monge.json (schema
// documented on Report). Fault injection inflates the charged counters by
// design, so the harness refuses to run under FAULT_RATE.
package checkbounds

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"

	"monge/internal/core"
	"monge/internal/hcmonge"
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/pram"
)

// Tolerance is the default flatness tolerance: a row fails when its
// largest shape ratio exceeds its smallest by more than this factor.
// Headroom over the observed flatness (~1.4 worst case) is deliberate —
// the assertion is meant to catch asymptotic regressions, not constant
// drift.
const Tolerance = 2.0

// Measured is one measurement: the charged counters of a simulated run.
type Measured struct {
	Time  int64
	Procs int64
	Work  int64
}

// Spec describes one table row: which machine runs which algorithm over
// which size ladder, the claimed bound, and the deterministic input seed.
type Spec struct {
	Table string // "1.1", "1.2", "1.3"
	Row   int    // 1-based row number within the table
	Model string // machine model, e.g. "CRCW PRAM", "hypercube"
	Name  string // algorithm, e.g. "row maxima"
	Claim string // asserted bound (annotated when it deviates from the paper)
	Sizes []int  // ladder of problem sizes, ascending
	Seed  int64  // per-row input seed

	Bound func(n int) float64 // bound(n) of the claim
	// Run takes one measurement. A cancellable ctx is attached to the
	// machines it builds, so a cancelled run throws merr.ErrCanceled.
	Run func(ctx context.Context, rng *rand.Rand, n int) Measured
}

// Point is one measured ladder point of a row. It holds only the
// charged counters, which are bit-reproducible, so a regenerated
// BENCH_monge.json changes only when one of them does (the gated
// allocation budgets live in the root alloc-regression test against
// BENCH_alloc.json).
type Point struct {
	N     int     `json:"n"`
	Time  int64   `json:"time"`
	Procs int64   `json:"procs"`
	Work  int64   `json:"work"`
	Bound float64 `json:"bound"`
	Ratio float64 `json:"ratio"` // Time / Bound
}

// Result is one fully measured row with its flatness verdict.
type Result struct {
	Table    string  `json:"table"`
	Row      int     `json:"row"`
	Model    string  `json:"model"`
	Name     string  `json:"name"`
	Claim    string  `json:"claim"`
	Seed     int64   `json:"seed"`
	Points   []Point `json:"points"`
	Flatness float64 `json:"flatness"` // max ratio / min ratio over Points
	Pass     bool    `json:"pass"`     // Flatness <= tolerance
}

// Report is the full harness output, the document written to
// BENCH_monge.json. Schema "monge-checkbounds/v1": {schema, tolerance,
// max_n (0 = unlimited), rows: [Result...]} with rows in table order and
// points in ladder order, so regenerated files are byte-identical.
type Report struct {
	Schema    string   `json:"schema"`
	Tolerance float64  `json:"tolerance"`
	MaxN      int      `json:"max_n"`
	Rows      []Result `json:"rows"`
}

// Schema is the identifier embedded in every report.
const Schema = "monge-checkbounds/v1"

func lg(n int) float64 { return float64(pram.Log2Ceil(n)) }

func lglglg(n int) float64 { return lg(n) * float64(pram.LogLog2Ceil(n)) }

// withCtx attaches ctx to mach when ctx can be cancelled. A background
// context attaches nothing, so the gate's machines keep the dispatch
// path they are measured on.
func withCtx[M interface{ SetContext(context.Context) }](ctx context.Context, mach M) M {
	if ctx.Done() != nil {
		mach.SetContext(ctx)
	}
	return mach
}

func idxVec(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// Rows returns the specs of every row of Tables 1.1-1.3, in table order.
// Ladders: the dense and staircase searches use {128, 256, 512}; the tube
// searches use smaller ladders (their machines have ~n^2 processors).
func Rows() []Spec {
	dense := []int{128, 256, 512}
	tube := []int{64, 128, 256}
	tubeHC := []int{32, 64, 128}

	t11pram := func(mode pram.Mode, procs func(n int) int) func(context.Context, *rand.Rand, int) Measured {
		return func(ctx context.Context, rng *rand.Rand, n int) Measured {
			a := marray.RandomMonge(rng, n, n)
			mach := withCtx(ctx, pram.New(mode, procs(n)))
			core.MongeRowMaxima(mach, a)
			return Measured{Time: mach.Time(), Procs: int64(mach.Procs()), Work: mach.Work()}
		}
	}
	t11net := func(kind hc.Kind) func(context.Context, *rand.Rand, int) Measured {
		return func(ctx context.Context, rng *rand.Rand, n int) Measured {
			a := marray.RandomMonge(rng, n, n)
			mach := withCtx(ctx, hcmonge.MachineFor(kind, n, n))
			hcmonge.MongeRowMaximaOn(mach, idxVec(n), idxVec(n),
				func(i, j int) float64 { return a.At(i, j) })
			return Measured{Time: mach.Time(), Procs: int64(mach.Size()), Work: mach.Work()}
		}
	}
	t12pram := func(mode pram.Mode, procs func(n int) int) func(context.Context, *rand.Rand, int) Measured {
		return func(ctx context.Context, rng *rand.Rand, n int) Measured {
			a := marray.RandomStaircaseMonge(rng, n, n)
			mach := withCtx(ctx, pram.New(mode, procs(n)))
			core.StaircaseRowMinima(mach, a)
			return Measured{Time: mach.Time(), Procs: int64(mach.Procs()), Work: mach.Work()}
		}
	}
	t13pram := func(mode pram.Mode) func(context.Context, *rand.Rand, int) Measured {
		return func(ctx context.Context, rng *rand.Rand, n int) Measured {
			c := marray.RandomComposite(rng, n, n, n)
			mach := withCtx(ctx, pram.New(mode, 2*n*n))
			core.TubeMaxima(mach, c)
			return Measured{Time: mach.Time(), Procs: int64(mach.Procs()), Work: mach.Work()}
		}
	}

	nProcs := func(n int) int { return n }
	crewProcs := func(n int) int { return n / pram.LogLog2Ceil(n) }

	return []Spec{
		{Table: "1.1", Row: 1, Model: "CRCW PRAM", Name: "row maxima",
			Claim: "O(lg n)", Sizes: dense, Seed: 1101, Bound: lg,
			Run: t11pram(pram.CRCW, nProcs)},
		{Table: "1.1", Row: 2, Model: "CREW PRAM", Name: "row maxima",
			Claim: "O(lg n lglg n)", Sizes: dense, Seed: 1102, Bound: lglglg,
			Run: t11pram(pram.CREW, crewProcs)},
		{Table: "1.1", Row: 3, Model: "hypercube", Name: "row maxima",
			Claim: "O(lg n lglg n)", Sizes: dense, Seed: 1103, Bound: lglglg,
			Run: t11net(hc.Cube)},
		{Table: "1.1", Row: 4, Model: "cube-connected-cycles", Name: "row maxima",
			Claim: "O(lg n lglg n)", Sizes: dense, Seed: 1104, Bound: lglglg,
			Run: t11net(hc.CCC)},
		{Table: "1.1", Row: 5, Model: "shuffle-exchange", Name: "row maxima",
			Claim: "O(lg n lglg n)", Sizes: dense, Seed: 1105, Bound: lglglg,
			Run: t11net(hc.Shuffle)},

		{Table: "1.2", Row: 1, Model: "CRCW PRAM", Name: "staircase row minima",
			Claim: "O(lg n)", Sizes: dense, Seed: 1201, Bound: lg,
			Run: t12pram(pram.CRCW, nProcs)},
		{Table: "1.2", Row: 2, Model: "CREW PRAM", Name: "staircase row minima",
			Claim: "O(lg n lglg n)", Sizes: dense, Seed: 1202, Bound: lglglg,
			Run: t12pram(pram.CREW, crewProcs)},
		{Table: "1.2", Row: 3, Model: "hypercube", Name: "staircase row minima",
			Claim: "O(lg n lglg n)", Sizes: dense, Seed: 1203, Bound: lglglg,
			Run: func(ctx context.Context, rng *rand.Rand, n int) Measured {
				a := marray.RandomStaircaseMonge(rng, n, n)
				bounds := make([]int, n)
				for i := 0; i < n; i++ {
					bounds[i] = marray.BoundaryOf(a, i)
				}
				mach := withCtx(ctx, hcmonge.MachineFor(hc.Cube, n, n))
				hcmonge.StaircaseRowMinimaOn(mach, idxVec(n), bounds, idxVec(n),
					func(i, j int) float64 { return a.At(i, j) })
				return Measured{Time: mach.Time(), Procs: int64(mach.Size()), Work: mach.Work()}
			}},

		{Table: "1.3", Row: 1, Model: "CRCW PRAM", Name: "tube maxima",
			Claim: "O(lg n) (paper: Theta(lglg n), deviation documented)",
			Sizes: tube, Seed: 1301, Bound: lg, Run: t13pram(pram.CRCW)},
		{Table: "1.3", Row: 2, Model: "CREW PRAM", Name: "tube maxima",
			Claim: "Theta(lg n)", Sizes: tube, Seed: 1302, Bound: lg,
			Run: t13pram(pram.CREW)},
		{Table: "1.3", Row: 3, Model: "hypercube", Name: "tube maxima",
			Claim: "Theta(lg n)", Sizes: tubeHC, Seed: 1303, Bound: lg,
			Run: func(ctx context.Context, rng *rand.Rand, n int) Measured {
				c := marray.RandomComposite(rng, n, n, n)
				mach := withCtx(ctx, hcmonge.TubeMachineFor(hc.Cube, c))
				hcmonge.TubeMaximaOn(mach, c)
				return Measured{Time: mach.Time(), Procs: int64(mach.Size()), Work: mach.Work()}
			}},
	}
}

// Measure runs one row's ladder (sizes above maxN are skipped when
// maxN > 0) and computes its flatness verdict. The row's rng stream is
// consumed in ladder order, so trimming the ladder never changes the
// measurements of the sizes that remain. Cancelling ctx aborts the run
// at the next superstep with a thrown merr.ErrCanceled.
func Measure(ctx context.Context, s Spec, maxN int, tol float64) Result {
	res := Result{Table: s.Table, Row: s.Row, Model: s.Model, Name: s.Name,
		Claim: s.Claim, Seed: s.Seed}
	rng := rand.New(rand.NewSource(s.Seed))
	for _, n := range s.Sizes {
		if maxN > 0 && n > maxN {
			break
		}
		m := s.Run(ctx, rng, n)
		b := s.Bound(n)
		res.Points = append(res.Points, Point{
			N: n, Time: m.Time, Procs: m.Procs, Work: m.Work,
			Bound: b, Ratio: float64(m.Time) / b,
		})
	}
	res.Flatness = flatness(res.Points)
	res.Pass = len(res.Points) > 0 && res.Flatness <= tol
	return res
}

func flatness(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	lo, hi := pts[0].Ratio, pts[0].Ratio
	for _, p := range pts[1:] {
		if p.Ratio < lo {
			lo = p.Ratio
		}
		if p.Ratio > hi {
			hi = p.Ratio
		}
	}
	return hi / lo
}

// MeasureAll measures every row of Rows and assembles the report.
func MeasureAll(maxN int, tol float64) Report {
	rep := Report{Schema: Schema, Tolerance: tol, MaxN: maxN}
	for _, s := range Rows() {
		rep.Rows = append(rep.Rows, Measure(context.Background(), s, maxN, tol))
	}
	return rep
}

// WriteJSON writes the report as indented JSON (the BENCH_monge.json
// format). Output is deterministic: struct field order, rows in table
// order, points in ladder order.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
