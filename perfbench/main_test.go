package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at small sizes, untraced and
// traced, on two seeds, with every answer check.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2} {
			w, err := newWorkload(name, smokeSizes)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.prepare(rand.New(rand.NewSource(seed))); err != nil {
				t.Fatalf("%s seed %d: prepare: %v", name, seed, err)
			}
			r, err := runUntraced(w, 0)
			if err != nil {
				t.Fatalf("%s seed %d: untraced: %v", name, seed, err)
			}
			if r.failed != 0 || r.attempted < minRequests {
				t.Errorf("%s seed %d: %d failed of %d attempted", name, seed, r.failed, r.attempted)
			}
			for _, m := range []string{"throughput_qps", "latency_p50_ms", "latency_tail_ms", "setup_s", "heap_mb"} {
				if v, ok := r.metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("%s seed %d: end-to-end metric %s = %+v", name, seed, m, v)
				}
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			r, err = runTraced(w, 0, path)
			if err != nil {
				t.Fatalf("%s seed %d: traced: %v", name, seed, err)
			}
			for _, pl := range perLayerNames {
				if _, ok := r.metrics[pl.name]; !ok {
					t.Errorf("%s seed %d: per-layer metric %s missing", name, seed, pl.name)
				}
			}
			checkTraceFile(t, path)
		}
	}
}

// checkTraceFile checks the Chrome trace_event file: every span but a
// client span has a parent, and that parent is a client span of the
// same request.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	clients := map[float64]float64{} // client span id -> request id
	for _, e := range f.TraceEvents {
		if e.Name == "client" {
			clients[e.Args["span"]] = e.Args["req"]
		}
	}
	if len(clients) == 0 {
		t.Fatal("trace file holds no client spans")
	}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("span %s: phase %q", e.Name, e.Ph)
		}
		if e.Name == "client" {
			continue
		}
		req, ok := clients[e.Args["parent"]]
		if !ok || req != e.Args["req"] {
			t.Errorf("span %s of request %v: parent %v is not that request's client span", e.Name, e.Args["req"], e.Args["parent"])
		}
	}
}

// TestWrongAnswerAborts corrupts one oracle answer per workload and
// expects the run to stop with errWrongAnswer.
func TestWrongAnswerAborts(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(rand.New(rand.NewSource(3))); err != nil {
			t.Fatal(err)
		}
		switch w := w.(type) {
		case *wireLoad:
			w.want[0][0]++
		case *indexLoad:
			w.sample[0].rowMin[0]++
		case *rowsLoad:
			w.inputs[0].want[0]++
		case *minplusLoad:
			w.runs[0]++
		}
		if _, err := runUntraced(w, 0); !errors.Is(err, errWrongAnswer) {
			t.Errorf("%s: corrupted oracle gave %v, want a wrong-answer error", name, err)
		}
	}
}

// TestResultLine checks the command's last output line.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	args := []string{"--workload", "rows", "--seed", "5", "--seconds", "0", "--trace", "1", "--trace-dir", dir}
	if err := run(args, &out, smokeSizes); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
	if _, err := os.Stat(filepath.Join(dir, "rows-seed5.json")); err != nil {
		t.Errorf("traced run wrote no trace file: %v", err)
	}
	if err := run([]string{"--workload", "nope"}, &out, smokeSizes); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
