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

// TestServeModeReportsThroughput smoke-tests the -serve driver-pool
// mode: a small run must exit 0, report its throughput line with every
// answer matching the sequential facade, and honor -timeout with the
// standard non-zero abort.
func TestServeModeReportsThroughput(t *testing.T) {
	code, stdout, stderr := run(t, "-serve", "-maxn", "64", "-queries", "32", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Concurrent serving") || !strings.Contains(stdout, "ok") {
		t.Fatalf("missing throughput report:\n%s", stdout)
	}
	if strings.Contains(stdout, "MISMATCH") {
		t.Fatalf("served answers diverged from the sequential facade:\n%s", stdout)
	}
	code, _, stderr = run(t, "-serve", "-maxn", "64", "-queries", "8", "-timeout", "1ns")
	if code == 0 {
		t.Error("-serve -timeout 1ns exited 0; cancelled runs must fail")
	}
	if !strings.Contains(stderr, "aborted") {
		t.Errorf("-serve timeout stderr does not report the abort:\n%s", stderr)
	}
}

// TestServeModeNativeBackend covers the -backend flag end to end: a
// native-backend serve run exits 0, names the backend in its report,
// and keeps every answer matching the sequential facade (which checks
// against PRAM-derived expectations — a cross-backend differential at
// the CLI layer); a bogus backend is a usage error.
func TestServeModeNativeBackend(t *testing.T) {
	code, stdout, stderr := run(t, "-serve", "-backend", "native", "-maxn", "64", "-queries", "32", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "native backend") {
		t.Fatalf("report does not name the native backend:\n%s", stdout)
	}
	if strings.Contains(stdout, "MISMATCH") {
		t.Fatalf("native served answers diverged from the sequential facade:\n%s", stdout)
	}
	code, _, stderr = run(t, "-serve", "-backend", "bogus")
	if code != 2 {
		t.Fatalf("-backend bogus exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "bogus") {
		t.Fatalf("stderr does not name the bad backend:\n%s", stderr)
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

// TestOpenLoopFlagValidation pins the usage contract of the open-loop
// latency mode: every invalid flag combination exits 2 with a message
// naming the offending flag, before any experiment work starts.
func TestOpenLoopFlagValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string // substring the usage message must contain
	}{
		"openloop-without-serve": {
			args: []string{"-openloop", "-qps", "100"},
			want: "-openloop requires -serve",
		},
		"openloop-without-qps": {
			args: []string{"-serve", "-openloop"},
			want: "-openloop requires -qps > 0",
		},
		"latency-out-without-openloop": {
			args: []string{"-serve", "-latency-out", "x.json"},
			want: "-latency-out requires -openloop",
		},
		"negative-qps": {
			args: []string{"-serve", "-qps", "-5"},
			want: "-qps -5 is negative",
		},
	} {
		code, _, stderr := run(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", name, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr missing %q:\n%s", name, tc.want, stderr)
		}
	}
}

// TestOpenLoopWritesLatencyLadder smoke-tests the open-loop mode end to
// end: a light run exits 0 and writes a monge-latency/v1 document with
// the three rungs, consistent outcome counts, and monotone percentiles.
func TestOpenLoopWritesLatencyLadder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lat.json")
	code, stdout, stderr := run(t,
		"-serve", "-openloop", "-qps", "400", "-queries", "40",
		"-maxn", "64", "-workers", "2", "-latency-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Open-loop") {
		t.Fatalf("missing open-loop report:\n%s", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Points []struct {
			Multiplier float64 `json:"multiplier"`
			Sent       int64   `json:"sent"`
			OK         int64   `json:"ok"`
			Rejected   int64   `json:"rejected"`
			Deadline   int64   `json:"deadline_expired"`
			P50        float64 `json:"p50_us"`
			P95        float64 `json:"p95_us"`
			P99        float64 `json:"p99_us"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("latency ladder is not valid JSON: %v", err)
	}
	if doc.Schema != "monge-latency/v1" {
		t.Fatalf("schema %q, want monge-latency/v1", doc.Schema)
	}
	if len(doc.Points) != 3 {
		t.Fatalf("%d rungs, want 3 (0.5x, 1x, 2x)", len(doc.Points))
	}
	for _, p := range doc.Points {
		if p.Sent != p.OK+p.Rejected+p.Deadline {
			t.Errorf("rung %gx: sent %d != ok %d + rejected %d + deadline %d",
				p.Multiplier, p.Sent, p.OK, p.Rejected, p.Deadline)
		}
		if p.OK > 0 && !(p.P50 > 0 && p.P50 <= p.P95 && p.P95 <= p.P99) {
			t.Errorf("rung %gx: percentiles not positive/monotone: p50=%g p95=%g p99=%g",
				p.Multiplier, p.P50, p.P95, p.P99)
		}
	}
}
