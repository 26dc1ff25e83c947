package monge

// The complexity-regression harness: TestCheckBounds re-measures every
// row of Tables 1.1-1.3 on the simulated machines, asserts the measured
// time grows like the claimed bound (flat shape ratio across the size
// ladder), and exports the measurement as JSON when CHECKBOUNDS_OUT
// names a path (the committed copy is BENCH_monge.json).
// TestExperimentsGolden then machine-checks the tables committed in
// EXPERIMENTS.md against the same measurement, so the documentation can
// never drift silently from the code. Both tests share one measurement
// pass; both skip under fault injection, which inflates the charged
// counters by design.

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"monge/internal/checkbounds"
	"monge/internal/faults"
)

var (
	cbOnce   sync.Once
	cbReport checkbounds.Report
)

// measureTables runs the harness once per test binary. CHECKBOUNDS_MAXN
// caps the size ladders (the CI checkbounds job uses 256 to stay fast);
// unset or 0 measures every row in full.
func measureTables(t *testing.T) checkbounds.Report {
	t.Helper()
	if faults.Global().Enabled() {
		t.Skip("fault injection inflates charged counters; complexity harness needs a clean run")
	}
	cbOnce.Do(func() {
		maxN := 0
		if v := os.Getenv("CHECKBOUNDS_MAXN"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil {
				maxN = parsed
			}
		}
		cbReport = checkbounds.MeasureAll(maxN, checkbounds.Tolerance)
	})
	return cbReport
}

func TestCheckBounds(t *testing.T) {
	rep := measureTables(t)
	if len(rep.Rows) == 0 {
		t.Fatal("harness measured no rows")
	}
	for _, row := range rep.Rows {
		row := row
		t.Run("table"+row.Table+"/row"+strconv.Itoa(row.Row), func(t *testing.T) {
			if len(row.Points) == 0 {
				t.Fatalf("%s (%s): no ladder points measured", row.Model, row.Claim)
			}
			for _, p := range row.Points {
				t.Logf("n=%4d  t=%6d  procs=%7d  work=%10d  t/bound=%.2f",
					p.N, p.Time, p.Procs, p.Work, p.Ratio)
				if p.Time <= 0 {
					t.Errorf("n=%d: nonpositive charged time %d", p.N, p.Time)
				}
			}
			if !row.Pass {
				t.Errorf("%s %s: shape ratio not flat: flatness %.2f exceeds tolerance %.2f — "+
					"measured growth no longer matches the claimed %s",
					row.Model, row.Name, row.Flatness, rep.Tolerance, row.Claim)
			}
		})
	}

	// CHECKBOUNDS_OUT=<path> exports the measurement as JSON (the
	// committed copy is BENCH_monge.json). Unset, the test writes
	// nothing, so a plain test run leaves the tree as it found it.
	if path := os.Getenv("CHECKBOUNDS_OUT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatalf("creating %s: %v", path, err)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			t.Fatalf("writing %s: %v", path, err)
		}
		t.Logf("wrote %s (%d rows, tolerance %.1f, max_n %d)",
			path, len(rep.Rows), rep.Tolerance, rep.MaxN)
	}

	// CHECKBOUNDS_MD=<path> additionally exports the tables as markdown —
	// the regeneration path for the golden tables in EXPERIMENTS.md.
	if path := os.Getenv("CHECKBOUNDS_MD"); path != "" {
		md, err := os.Create(path)
		if err != nil {
			t.Fatalf("creating %s: %v", path, err)
		}
		defer md.Close()
		if err := checkbounds.RenderMarkdown(md, rep); err != nil {
			t.Fatalf("rendering markdown: %v", err)
		}
		t.Logf("wrote markdown tables to %s", path)
	}
}

// goldenTolerance is how far a fresh measurement may drift from a number
// documented in EXPERIMENTS.md before the golden test fails. Measurements
// are deterministic, so any nonzero drift means the algorithms' charged
// costs changed; 25% is the documented threshold at which the tables must
// be regenerated.
const goldenTolerance = 0.25

func TestExperimentsGolden(t *testing.T) {
	rep := measureTables(t)
	doc, err := os.Open("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("opening EXPERIMENTS.md: %v", err)
	}
	defer doc.Close()
	golden, err := checkbounds.ParseExperiments(doc)
	if err != nil {
		t.Fatalf("parsing EXPERIMENTS.md: %v", err)
	}
	if len(golden) == 0 {
		t.Fatal("EXPERIMENTS.md documents no checkbounds tables; regenerate with: go test -run TestCheckBounds -v")
	}

	measured := make(map[string]checkbounds.Result)
	for _, r := range rep.Rows {
		measured[r.Table+"/"+strconv.Itoa(r.Row)] = r
	}
	checked := 0
	for _, g := range golden {
		key := g.Table + "/" + strconv.Itoa(g.Row)
		r, ok := measured[key]
		if !ok {
			t.Errorf("EXPERIMENTS.md documents table %s row %d, but the harness has no such spec", g.Table, g.Row)
			continue
		}
		if r.Model != g.Model {
			t.Errorf("table %s row %d: documented model %q, harness says %q", g.Table, g.Row, g.Model, r.Model)
		}
		byN := make(map[int]int64)
		for _, p := range r.Points {
			byN[p.N] = p.Time
		}
		for n, docT := range g.Times {
			gotT, ok := byN[n]
			if !ok {
				// Ladder capped by CHECKBOUNDS_MAXN; nothing to compare.
				continue
			}
			drift := float64(gotT-docT) / float64(docT)
			if drift < 0 {
				drift = -drift
			}
			if drift > goldenTolerance {
				t.Errorf("table %s row %d (%s) n=%d: measured t=%d, EXPERIMENTS.md documents %d (drift %.0f%% > %.0f%%) — "+
					"if the cost change is intentional, regenerate the tables (see EXPERIMENTS.md)",
					g.Table, g.Row, g.Model, n, gotT, docT, drift*100, goldenTolerance*100)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no documented (row, size) pairs overlapped the measurement; is CHECKBOUNDS_MAXN too small?")
	}
	t.Logf("checked %d documented measurements against the harness", checked)
}
