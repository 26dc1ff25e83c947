package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"monge/internal/obs"
)

// run invokes the command exactly as main does, returning the exit code
// and both output streams.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var ob, eb bytes.Buffer
	code = mainImpl(args, &ob, &eb)
	return code, ob.String(), eb.String()
}

// TestTimeoutExitsNonzero pins the error contract of the command: a run
// cancelled at the -timeout deadline must report the abort and exit
// non-zero, for every experiment that simulates machines — including
// app4, whose hypercube string-edit phase creates its machines
// internally and historically ran to completion ignoring the deadline.
func TestTimeoutExitsNonzero(t *testing.T) {
	for _, exp := range []string{"t11", "app4"} {
		code, _, stderr := run(t, "-exp", exp, "-maxn", "128", "-timeout", "1ns")
		if code == 0 {
			t.Errorf("-exp %s -timeout 1ns exited 0; cancelled runs must fail", exp)
		}
		if !strings.Contains(stderr, "aborted") {
			t.Errorf("-exp %s stderr does not report the abort:\n%s", exp, stderr)
		}
	}
}

func TestUnknownExperimentExitsUsage(t *testing.T) {
	code, _, stderr := run(t, "-exp", "nope")
	if code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "nope") {
		t.Fatalf("stderr does not name the bad experiment:\n%s", stderr)
	}
}

// TestTraceFlagRemoved pins every flag the command has dropped: the
// per-step sink export (-trace) and the serving and batch modes with
// their knobs, whose load generation now lives only in perfbench. Each
// one is a usage error that names the flag.
func TestTraceFlagRemoved(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-trace", []string{"-trace", "-"}},
		{"-serve", []string{"-serve"}},
		{"-openloop", []string{"-openloop"}},
		{"-latency-out", []string{"-latency-out", "x.json"}},
		{"-batch", []string{"-batch", "8"}},
		{"-backend", []string{"-backend", "native"}},
		{"-workers", []string{"-workers", "2"}},
		{"-qps", []string{"-qps", "400"}},
		{"-queries", []string{"-queries", "64"}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			code, _, stderr := run(t, append([]string{"-exp", "t11", "-maxn", "16"}, tc.args...)...)
			// The usage text after the error lists the kept flags
			// (-trace-out among them), so match the error line itself.
			if code != 2 || !strings.Contains(stderr, "not defined: "+tc.flag+"\n") {
				t.Fatalf("%s exited %d, want 2 naming the flag; stderr:\n%s", tc.flag, code, stderr)
			}
		})
	}
}

// metricsRow is one parsed line of the -metrics table; field positions
// follow the fixed column set of obs.(*Observer).WriteTable.
type metricsRow struct {
	supersteps, reads, writes, linkMsgs, linkBytes int64
}

func parseMetrics(t *testing.T, stdout string) map[string]metricsRow {
	t.Helper()
	rows := make(map[string]metricsRow)
	lines := strings.Split(stdout, "\n")
	start := -1
	for i, ln := range lines {
		if strings.Contains(ln, "observability counters") {
			start = i + 2 // skip the header line
			break
		}
	}
	if start < 0 {
		t.Fatalf("no metrics table in output:\n%s", stdout)
	}
	num := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad counter %q: %v", s, err)
		}
		return v
	}
	for _, ln := range lines[start:] {
		f := strings.Fields(ln)
		if len(f) != 19 { // site + 18 counter columns (see obs.WriteTable)
			continue
		}
		rows[f[0]] = metricsRow{
			supersteps: num(f[1]), reads: num(f[4]), writes: num(f[5]),
			linkMsgs: num(f[7]), linkBytes: num(f[8]),
		}
	}
	return rows
}

// TestMetricsNonzeroAllModels is the acceptance check of the -metrics
// flag: after a t11 run, every machine model reports nonzero supersteps,
// the PRAM reports shared-memory traffic, and every network kind reports
// link traffic.
func TestMetricsNonzeroAllModels(t *testing.T) {
	code, stdout, stderr := run(t, "-exp", "t11", "-maxn", "128", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	rows := parseMetrics(t, stdout)
	pr, ok := rows["pram"]
	if !ok {
		t.Fatalf("no pram site in metrics table:\n%s", stdout)
	}
	if pr.supersteps == 0 || pr.reads == 0 || pr.writes == 0 {
		t.Errorf("pram counters not all nonzero: %+v", pr)
	}
	for _, kind := range []string{"hypercube", "cube-connected-cycles", "shuffle-exchange"} {
		r, ok := rows[kind]
		if !ok {
			t.Errorf("no %s site in metrics table", kind)
			continue
		}
		if r.supersteps == 0 || r.linkMsgs == 0 || r.linkBytes == 0 {
			t.Errorf("%s counters not all nonzero: %+v", kind, r)
		}
	}
	if obs.Global() != nil {
		t.Error("mainImpl leaked the global observer")
	}
}

// TestTraceOutWritesChromeTrace checks the -trace-out export is a valid
// Chrome trace_event document with complete events from machine sites.
func TestTraceOutWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := run(t, "-exp", "t11", "-maxn", "128", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	sites := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			sites[ev.Cat] = true
		}
	}
	for _, want := range []string{"pram", "hypercube", "hcmonge"} {
		if !sites[want] {
			t.Errorf("trace has no spans from site %q (got %v)", want, sites)
		}
	}
}
