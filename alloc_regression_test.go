package monge

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"monge/internal/core"
	"monge/internal/faults"
	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/smawk"
)

// BENCH_alloc.json (schema monge-allocs/v1) is the committed allocation
// baseline: steady-state and cold allocs/op for the gated benchmarks,
// plus hard AllocsPerRun budgets for the hot paths the scratch arenas
// were built for. The "gates" section is enforced here; the "benchmarks"
// section is reproduced (with tolerance) by the alloc-smoke CI job.
type allocBaseline struct {
	Schema     string          `json:"schema"`
	Benchmarks []allocBenchRow `json:"benchmarks"`
	Gates      []allocGate     `json:"gates"`
}

type allocBenchRow struct {
	Name                string `json:"name"`
	AllocsPerOp         int64  `json:"allocs_per_op"`
	BytesPerOp          int64  `json:"bytes_per_op"`
	CIAllocsPerOp       int64  `json:"ci_allocs_per_op"`
	BaselineAllocsPerOp int64  `json:"baseline_allocs_per_op"`
	BaselineBytesPerOp  int64  `json:"baseline_bytes_per_op"`
}

type allocGate struct {
	Name               string  `json:"name"`
	Runs               int     `json:"runs"`
	BudgetAllocsPerRun float64 `json:"budget_allocs_per_run"`
}

func loadAllocBaseline(t *testing.T) allocBaseline {
	t.Helper()
	raw, err := os.ReadFile("BENCH_alloc.json")
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var b allocBaseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("parse BENCH_alloc.json: %v", err)
	}
	if b.Schema != "monge-allocs/v1" {
		t.Fatalf("BENCH_alloc.json schema %q, want monge-allocs/v1", b.Schema)
	}
	return b
}

// TestAllocationBudgets is the allocation-regression gate: after one
// warm-up run (which populates the workspace pools and machine arenas),
// the steady-state hot paths must stay within the budgets committed in
// BENCH_alloc.json. The budgets carry ~2x headroom over the measured
// steady state, so a failure here means a real regression — a hot path
// picked up a per-call make/append again — not measurement noise.
//
// testing.AllocsPerRun already performs one un-counted warm-up call of
// its own; the explicit warm-up before it exists so that the machine
// construction and first-touch arena growth are off the books for every
// probe, matching how the batched driver amortizes them in production.
func TestAllocationBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gates need full-size inputs")
	}
	base := loadAllocBaseline(t)
	gates := make(map[string]allocGate, len(base.Gates))
	for _, g := range base.Gates {
		gates[g.Name] = g
	}

	probes := map[string]func() func(){
		"smawk-rowminima-n512": func() func() {
			a := marray.RandomMonge(rand.New(rand.NewSource(20)), 512, 512)
			smawk.RowMinima(a) // warm the smawk workspace pool
			return func() { smawk.RowMinima(a) }
		},
		"staircase-rowminima-n512": func() func() {
			a := marray.RandomStaircaseMonge(rand.New(rand.NewSource(21)), 512, 512)
			smawk.StaircaseRowMinima(a)
			return func() { smawk.StaircaseRowMinima(a) }
		},
		"pram-rowminima-n256":        pramRowMinimaProbe(nil),
		"pram-rowminima-n256-faults": pramRowMinimaProbe(faults.New(7, 0.05)),
	}

	for name, setup := range probes {
		gate, ok := gates[name]
		if !ok {
			t.Fatalf("probe %q has no gate in BENCH_alloc.json", name)
		}
		t.Run(name, func(t *testing.T) {
			f := setup()
			got := testing.AllocsPerRun(gate.Runs, f)
			t.Logf("%s: %.1f allocs/run (budget %.0f)", name, got, gate.BudgetAllocsPerRun)
			if got > gate.BudgetAllocsPerRun {
				t.Errorf("%s allocates %.1f per run, budget %.0f (BENCH_alloc.json); a hot path regressed to per-call allocation",
					name, got, gate.BudgetAllocsPerRun)
			}
		})
	}
}

// pramRowMinimaProbe is the PRAM row-minima probe with inj as its
// machine's only fault injector: pram.New attaches the process-wide
// one, which a FAULT_RATE run arms, and the probe replaces it so each
// budget prices exactly the fault schedule its gate names.
func pramRowMinimaProbe(inj *faults.Injector) func() func() {
	return func() func() {
		a := marray.RandomMonge(rand.New(rand.NewSource(22)), 256, 256)
		mach := pram.New(pram.CRCW, 256)
		mach.SetFaults(inj)
		mach.SetWorkers(1) // AllocsPerRun pins GOMAXPROCS(1); keep the probe serial
		core.RowMinima(mach, a)
		return func() { core.RowMinima(mach, a) }
	}
}
