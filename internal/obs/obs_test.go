package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSiteRegistryAndSnapshot(t *testing.T) {
	o := NewObserver()
	c := o.Site("pram")
	if c == nil {
		t.Fatal("Site returned nil on a live observer")
	}
	if o.Site("pram") != c {
		t.Fatal("Site is not cached per name")
	}
	c.Add(Supersteps, 3)
	c.Add(SharedReads, 10)
	c.Add(ConflictsPriority, 2)
	got := o.Site("pram")
	if got.Load(Supersteps) != 3 || got.Load(SharedReads) != 10 || got.Load(ConflictsPriority) != 2 {
		t.Fatalf("supersteps=%d reads=%d priority=%d, want 3/10/2",
			got.Load(Supersteps), got.Load(SharedReads), got.Load(ConflictsPriority))
	}

	var nilObs *Observer
	if nilObs.Site("x") != nil || nilObs.Tracer() != nil {
		t.Fatal("nil observer must hand out nil handles")
	}
	// A nil block absorbs every update and reads zero.
	var nilC *Counters
	nilC.Add(Supersteps, 1)
	nilC.Store(QueueDepth, 1)
	nilC.StoreMax(QueueDepthPeak, 1)
	if nilC.Load(Supersteps) != 0 {
		t.Fatal("nil Counters must read zero")
	}
}

func TestCountersConcurrent(t *testing.T) {
	o := NewObserver()
	c := o.Site("pram")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(SharedReads, 1)
				c.StoreMax(WriteShardPeak, int64(w*1000+i))
			}
		}()
	}
	wg.Wait()
	if got := c.Load(SharedReads); got != 8000 {
		t.Fatalf("SharedReads = %d, want 8000", got)
	}
	if got := c.Load(WriteShardPeak); got != 7999 {
		t.Fatalf("WriteShardPeak = %d, want the high-water 7999", got)
	}
}

// TestSiteConcurrent races first use and hits of a few sites: every
// caller must get the one block per name (a lost LoadOrStore race would
// split a site's counts across two blocks).
func TestSiteConcurrent(t *testing.T) {
	o := NewObserver()
	names := []string{"pram", "native", "serve", "exec.pool"}
	got := make([][]*Counters, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, name := range names {
					got[g] = append(got[g], o.Site(name))
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, c := range got[g] {
			if want := o.Site(names[i%len(names)]); c != want {
				t.Fatalf("goroutine %d call %d got a second block for %q", g, i, names[i%len(names)])
			}
		}
	}
}

func TestWriteJSONAndTable(t *testing.T) {
	o := NewObserver()
	o.Site("pram").Add(Supersteps, 5)
	o.Site("hypercube").Add(LinkMessages, 7)
	o.Site("hypercube").Add(LinkBytes, 7*WordBytes)

	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sites map[string]map[string]any `json:"sites"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v", err)
	}
	if doc.Sites["pram"]["supersteps"] != 5.0 || doc.Sites["hypercube"]["link_messages"] != 7.0 {
		t.Fatalf("JSON round-trip lost counters: %+v", doc.Sites)
	}

	buf.Reset()
	if err := o.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"site", "supersteps", "link-msgs", "pram", "hypercube"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	// Header plus one row per site, each the site and 18 columns, with
	// the conflict and fault columns summing their metrics.
	o.Site("pram").Add(ConflictsSamePid, 1)
	o.Site("pram").Add(ConflictsCREW, 2)
	o.Site("pram").Add(FaultDrops, 4)
	buf.Reset()
	if err := o.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want header + 2 sites:\n%s", len(lines), buf.String())
	}
	head := strings.Fields(lines[0])
	for _, ln := range lines {
		if f := strings.Fields(ln); len(f) != 19 {
			t.Fatalf("table line has %d fields, want 19: %q", len(f), ln)
		}
	}
	pram := strings.Fields(lines[2])
	if pram[0] != "pram" || pram[slices.Index(head, "conflicts")] != "3" || pram[slices.Index(head, "faults")] != "4" {
		t.Fatalf("summed columns wrong:\n%s", buf.String())
	}
}

// TestEveryMetricRendered walks the descriptor table: every metric must
// reach the JSON document, the expvar variable and the Prometheus
// exposition under its declared name and # TYPE, both while zero and
// after an update, with the value printed exactly.
func TestEveryMetricRendered(t *testing.T) {
	old := Global()
	t.Cleanup(func() { SetGlobal(old) })
	const big = 21000000
	for _, set := range []bool{false, true} {
		o := NewObserver()
		c := o.Site("s")
		want := func(id ID) int64 {
			if set {
				return big + int64(id)
			}
			return 0
		}
		if set {
			for id := range ID(numIDs) {
				if descs[id].kind == counter {
					c.Add(id, want(id))
				} else {
					c.Store(id, want(id))
				}
			}
		}
		SetGlobal(o)
		PublishExpvar()

		var js bytes.Buffer
		if err := o.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Sites map[string]map[string]json.RawMessage `json:"sites"`
		}
		if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		var vars map[string]map[string]any
		if err := json.Unmarshal([]byte(expvar.Get("monge_obs").String()), &vars); err != nil {
			t.Fatalf("expvar monge_obs: %v", err)
		}
		var prom bytes.Buffer
		if err := o.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}

		for id := range ID(numIDs) {
			d := descs[id]
			v := strconv.FormatInt(want(id), 10)
			if got := string(doc.Sites["s"][d.name]); got != v {
				t.Errorf("set=%v: JSON %s = %q, want %s", set, d.name, got, v)
			}
			if got, ok := vars["s"][d.name].(float64); !ok || int64(got) != want(id) {
				t.Errorf("set=%v: expvar %s = %v, want %s", set, d.name, vars["s"][d.name], v)
			}
			for _, line := range []string{
				"# TYPE monge_" + d.name + " " + d.kind.String() + "\n",
				"monge_" + d.name + `{site="s"} ` + v + "\n",
			} {
				if !strings.Contains(prom.String(), line) {
					t.Errorf("set=%v: Prometheus exposition missing %q", set, line)
				}
			}
		}
		for _, w := range waitQuantiles {
			if !strings.Contains(prom.String(), "# TYPE monge_"+w.name+" gauge\n") {
				t.Errorf("Prometheus exposition missing the %s gauge", w.name)
			}
		}
	}
	// Each metric name is declared once.
	seen := map[string]bool{}
	for _, d := range descs {
		if d.name == "" || seen[d.name] {
			t.Errorf("metric name %q empty or declared twice", d.name)
		}
		seen[d.name] = true
	}
}

func TestTracerSpansAndCap(t *testing.T) {
	o := NewObserver()
	tr := o.EnableTracing(2)
	if o.EnableTracing(5) != tr {
		t.Fatal("EnableTracing is not idempotent")
	}
	for i := 0; i < 3; i++ {
		t0 := tr.Begin()
		tr.End("pram", "step", t0, 128, 1, 4)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want cap of 2", len(spans))
	}
	if tr.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", tr.Dropped())
	}
	s := spans[0]
	if s.Site != "pram" || s.Name != "step" || s.N != 128 || s.Chunks != 4 {
		t.Fatalf("span = %+v", s)
	}
	if s.Dur < 0 || s.Start < 0 {
		t.Fatalf("negative span timing: %+v", s)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	o := NewObserver()
	tr := o.EnableTracing(0)
	t0 := tr.Begin()
	time.Sleep(time.Microsecond)
	tr.End("pram", "step", t0, 64, 2, 1)
	t0 = tr.Begin()
	tr.End("hypercube", "exchange", t0, 32, 1, 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is invalid JSON: %v", err)
	}
	// 2 thread_name metadata events + 2 complete events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d trace events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	var metas, completes int
	tids := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			metas++
		case "X":
			completes++
			tids[ev["cat"].(string)] = ev["tid"].(float64)
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if metas != 2 || completes != 2 {
		t.Fatalf("metas=%d completes=%d, want 2/2", metas, completes)
	}
	if tids["pram"] == tids["hypercube"] {
		t.Fatal("sites share a tid lane")
	}
}

func TestGlobalObserverAndExpvar(t *testing.T) {
	if Global() != nil {
		t.Fatal("global observer must start nil")
	}
	o := NewObserver()
	SetGlobal(o)
	defer SetGlobal(nil)
	if Global() != o {
		t.Fatal("SetGlobal did not install")
	}
	if name := PublishExpvar(); name != "monge_obs" {
		t.Fatalf("PublishExpvar = %q", name)
	}
	PublishExpvar() // idempotent
	SetGlobal(nil)
	if Global() != nil {
		t.Fatal("SetGlobal(nil) did not detach")
	}
}
