package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the spans kept for the trace file; the per-layer
// series keep growing past it.
const maxSpans = 1 << 16

// span is one timed call. Every span of a request carries the
// request's id; every span but the client span has the client span as
// its parent.
type span struct {
	name       string
	req        int64
	id, parent int64
	tid        int // 1: client goroutine, 2: HTTP handler goroutine
	start, end time.Duration
}

// tracer keeps spans in memory and the per-request durations of each
// layer, in microseconds unless the layer name says otherwise. It is
// safe for concurrent use: the wire workload's handler records from
// the server's goroutine.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	series   map[string][]float64
	handler  map[int64]time.Duration // handler span per request id
	nextReq  int64
	nextSpan int64

	// Touched only by the client goroutine.
	clientTotal time.Duration // summed client spans
	replayTotal time.Duration // summed replay-only layer spans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), series: map[string][]float64{}, handler: map[int64]time.Duration{}}
}

// tracedReq is one traced request: its id and its client span.
type tracedReq struct {
	tr    *tracer
	id    int64
	span  int64
	start time.Time
}

// begin opens a request's client span.
func (t *tracer) begin() *tracedReq {
	t.mu.Lock()
	t.nextReq++
	t.nextSpan++
	r := &tracedReq{tr: t, id: t.nextReq, span: t.nextSpan}
	t.mu.Unlock()
	r.start = time.Now()
	return r
}

// end closes the client span.
func (r *tracedReq) end() {
	end := time.Now()
	r.tr.clientTotal += end.Sub(r.start)
	r.tr.record(span{name: "client", req: r.id, id: r.span, tid: 1,
		start: r.start.Sub(r.tr.t0), end: end.Sub(r.tr.t0)})
}

// child records a span under the client span and returns its duration.
// A primary span is the call the untraced loop makes; any other span is
// a replay-only call and is left out of the overhead comparison.
func (r *tracedReq) child(name string, start, end time.Time, primary bool) time.Duration {
	d := end.Sub(start)
	if !primary {
		r.tr.replayTotal += d
	}
	r.tr.record(span{name: name, req: r.id, parent: r.span, tid: 1,
		start: start.Sub(r.tr.t0), end: end.Sub(r.tr.t0)})
	r.tr.observe(name, float64(d)/1e3)
	return d
}

// handlerSpan records the HTTP handler's span for request id (from the
// server goroutine).
func (t *tracer) handlerSpan(reqID, parent int64, start, end time.Time) {
	t.mu.Lock()
	t.handler[reqID] = end.Sub(start)
	t.mu.Unlock()
	t.record(span{name: "httpfront.handler", req: reqID, parent: parent, tid: 2,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.observe("httpfront.handler", float64(end.Sub(start))/1e3)
}

// handlerDur returns the handler span of request id, if it was recorded.
func (t *tracer) handlerDur(reqID int64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.handler[reqID]
	delete(t.handler, reqID)
	return d, ok
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.id == 0 {
		t.nextSpan++
		s.id = t.nextSpan
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
}

// observe appends one request's duration in microseconds to the
// series of metric name+"_us".
func (t *tracer) observe(name string, us float64) {
	t.observeValue(name+"_us", us)
}

// observeValue appends a value to the series of an exact metric name.
func (t *tracer) observeValue(metric string, v float64) {
	t.mu.Lock()
	t.series[metric] = append(t.series[metric], v)
	t.mu.Unlock()
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeFile writes the spans as Chrome trace_event JSON and returns
// how many it wrote.
func (t *tracer) writeFile(path string) (int, error) {
	t.mu.Lock()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"req": s.req, "span": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		events[i] = traceEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Args: args}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("writing trace: %w", err)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return 0, fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return 0, fmt.Errorf("writing trace: %w", err)
	}
	return len(events), nil
}
