// Package httpfront exposes the load-disciplined serving stack over
// net/http as a small JSON API, so the library's typed serving errors
// become conventional HTTP status codes:
//
//	POST /v1/query   run one query        200 / 400 / 404 / 413 / 429 / 503 / 504
//	POST /v1/index   preprocess an index  200 / 400 / 413 / 429
//	GET  /v1/stats   pool + front stats   200
//	GET  /debug/vars expvar (monge_obs)   200
//	GET  /metrics    Prometheus text exposition of the obs counters
//
// The mapping is exact: ErrOverloaded (full queue, inflight cap, shed,
// quota) is 429 with a Retry-After hint, ErrDeadlineExceeded is 504,
// merr.ErrCanceled and serve.ErrClosed are 503, structural input errors
// (ErrNotMonge, ErrNotStaircase, ErrDimensionMismatch, bad JSON) are
// 400, a body past the size cap is 413, and a query naming an unknown
// index_id is 404. Per-query deadlines ride in the request body
// (deadline_ms) and compose with client disconnects through the request
// context.
//
// POST /v1/index preprocesses a matrix once (null entries mark staircase
// blocking) and answers {"index_id", rows, cols, bytes, build_ns}; the
// id then serves the index-backed query kinds "submax" and
// "range-row-minima" on /v1/query until the registry (capacity
// maxIndexes, evicted never — build what you serve) fills.
package httpfront

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"monge/internal/admit"
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/mindex"
	"monge/internal/obs"
	"monge/internal/serve"
)

// maxBodyBytes bounds a query body; matrices past this belong in the
// batch API, not a JSON front end. A var so tests can pin the 413 path
// without building a 64 MB body.
var maxBodyBytes int64 = 64 << 20

// Entry is a JSON matrix entry that decodes null as +Inf, so staircase
// arrays (blocked entries) are expressible in plain JSON.
type Entry float64

// MarshalJSON encodes finite values as numbers and either infinity as
// null (encoding/json rejects raw Inf), so blocked answers round-trip.
func (e Entry) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(e), 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(e))
}

// UnmarshalJSON decodes a number, or null as +Inf.
func (e *Entry) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*e = Entry(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*e = Entry(f)
	return nil
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Kind is "row-minima", "staircase-row-minima", "tube-maxima",
	// "submax", or "range-row-minima".
	Kind string `json:"kind"`
	// A is the input array of the row problems (null entries are +Inf,
	// for the staircase problem).
	A [][]Entry `json:"a,omitempty"`
	// D and E are the factor matrices of the tube problem.
	D [][]Entry `json:"d,omitempty"`
	E [][]Entry `json:"e,omitempty"`
	// IndexID names a prebuilt index (from POST /v1/index) for the
	// index-backed kinds; R1..C2 are its inclusive query ranges (the
	// column pair is ignored by "range-row-minima").
	IndexID string `json:"index_id,omitempty"`
	R1      int    `json:"r1,omitempty"`
	R2      int    `json:"r2,omitempty"`
	C1      int    `json:"c1,omitempty"`
	C2      int    `json:"c2,omitempty"`
	// Tenant keys the per-tenant quota bucket; Priority orders shedding
	// (<= 0 is shed first under load).
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// DeadlineMS bounds the query end to end; 0 means no deadline
	// beyond the client connection.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// PosJSON is a submatrix-maximum answer. Row and Col are -1 and Val is
// null when the queried rectangle is fully blocked.
type PosJSON struct {
	Row int   `json:"row"`
	Col int   `json:"col"`
	Val Entry `json:"val"`
}

// QueryResponse is the POST /v1/query success body.
type QueryResponse struct {
	Idx   []int       `json:"idx,omitempty"`
	TubeJ [][]int     `json:"tube_j,omitempty"`
	TubeV [][]float64 `json:"tube_v,omitempty"`
	Pos   *PosJSON    `json:"pos,omitempty"`
}

// IndexRequest is the POST /v1/index body: the matrix to preprocess
// (null entries mark staircase blocking, which must be right/down
// closed).
type IndexRequest struct {
	A [][]Entry `json:"a"`
}

// IndexResponse is the POST /v1/index success body.
type IndexResponse struct {
	IndexID string `json:"index_id"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Bytes   int64  `json:"bytes"`
	BuildNS int64  `json:"build_ns"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	Pool  serve.Stats `json:"pool"`
	Front admit.Stats `json:"front"`
}

// maxIndexes caps the index registry; past it POST /v1/index rejects
// with 429 until the server restarts (indexes are never evicted — a
// served index must stay answerable).
const maxIndexes = 64

// Server serves the JSON API over an admission front.
type Server struct {
	front *admit.Front

	mu      sync.Mutex
	indexes map[string]*mindex.Index
	nextID  int
}

// New returns a server answering queries through front.
func New(front *admit.Front) *Server {
	return &Server{front: front, indexes: make(map[string]*mindex.Index)}
}

// Handler returns the API's http.Handler. Installing it also publishes
// the obs counters as the expvar "monge_obs" (visible on /debug/vars).
func (s *Server) Handler() http.Handler {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/index", s.handleIndex)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// promContentType is the Prometheus text exposition format version the
// /metrics endpoint speaks.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics renders the process-wide obs counters in Prometheus
// text exposition format: one metric per counter, one sample per site
// (the site riding in a label). With no observer installed the endpoint
// answers an empty, well-typed body — scrapes succeed either way.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	o := obs.Global()
	if o == nil {
		return
	}
	writePrometheus(w, o.Snapshot())
}

// writePrometheus renders a snapshot deterministically (metrics and
// sites in sorted order) as monge_<counter>{site="<site>"} <value>
// lines under # TYPE headers. The counter names are taken from the
// snapshot's JSON tags, so new obs fields show up without touching this
// renderer; non-scalar fields (the queue-wait histogram buckets) are
// skipped — their percentile summaries are scalar and do ship.
func writePrometheus(w io.Writer, snap map[string]obs.CounterSnapshot) {
	series := make(map[string]map[string]float64)
	for site, cs := range snap {
		raw, err := json.Marshal(cs)
		if err != nil {
			continue
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			continue
		}
		for name, v := range fields {
			f, ok := v.(float64)
			if !ok {
				continue
			}
			if series[name] == nil {
				series[name] = make(map[string]float64)
			}
			series[name][site] = f
		}
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE monge_%s gauge\n", name)
		sites := make([]string, 0, len(series[name]))
		for site := range series[name] {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		for _, site := range sites {
			fmt.Fprintf(w, "monge_%s{site=%q} %g\n", name, site, series[name][site])
		}
	}
}

// handleIndex preprocesses one matrix into a registered index. Inputs
// containing nulls must form a right/down-closed staircase; both shapes
// run their sampled structural screen before the build.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var ir IndexRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ir); err != nil {
		writeDecodeError(w, err)
		return
	}
	a, err := indexMatrixOf(ir.A)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.mu.Lock()
	full := len(s.indexes) >= maxIndexes
	s.mu.Unlock()
	if full {
		writeError(w, http.StatusTooManyRequests, "index_capacity",
			fmt.Sprintf("index registry is full (%d indexes)", maxIndexes))
		return
	}
	var ix *mindex.Index
	start := time.Now()
	if err := catch(func() { ix = mindex.Build(a, mindex.Opts{}) }); err != nil {
		status, code := classify(err)
		writeError(w, status, code, err.Error())
		return
	}
	buildNS := time.Since(start).Nanoseconds()
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("ix-%d", s.nextID)
	s.indexes[id] = ix
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, IndexResponse{
		IndexID: id, Rows: ix.Rows(), Cols: ix.Cols(), Bytes: ix.Bytes(), BuildNS: buildNS,
	})
}

// lookupIndex resolves an index_id from the registry.
func (s *Server) lookupIndex(id string) (*mindex.Index, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix, ok := s.indexes[id]
	return ix, ok
}

// indexMatrixOf converts the JSON rows for an index build: plain Monge
// matrices pass the sampled Monge screen; matrices with null (+Inf)
// entries must be exactly right/down-closed staircases and pass the
// sampled staircase screen, and come out carrying the Staircase
// interface so the index builds the staircase solvers.
func indexMatrixOf(rows [][]Entry) (marray.Matrix, error) {
	a, err := denseOf(rows, "a")
	if err != nil {
		return nil, err
	}
	m, n := a.Rows(), a.Cols()
	bound := make([]int, m)
	blocked := false
	prev := n
	for i := 0; i < m; i++ {
		b := 0
		for b < n && !math.IsInf(a.At(i, b), 1) {
			b++
		}
		for j := b; j < n; j++ {
			if !math.IsInf(a.At(i, j), 1) {
				return nil, fmt.Errorf("matrix \"a\": row %d has a finite entry at column %d after a null at column %d; staircase blocking must be right-closed", i, j, b)
			}
		}
		if b > prev {
			return nil, fmt.Errorf("matrix \"a\": row %d has %d finite entries, more than row %d's %d; staircase blocking must be down-closed", i, b, i-1, prev)
		}
		prev = b
		bound[i] = b
		if b < n {
			blocked = true
		}
	}
	if !blocked {
		if err := marray.CheckMongeSampled(a); err != nil {
			return nil, err
		}
		return a, nil
	}
	st := marray.StairFunc{M: m, N: n, F: a.At, Bound: func(i int) int { return bound[i] }}
	if err := marray.CheckStaircaseMongeSampled(st); err != nil {
		return nil, err
	}
	return st, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var qr QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&qr); err != nil {
		writeDecodeError(w, err)
		return
	}
	q, status, code, err := s.buildQuery(&qr)
	if err != nil {
		writeError(w, status, code, err.Error())
		return
	}
	if err := q.Screen(); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	ctx := r.Context()
	if qr.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(qr.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	res := s.front.Do(ctx, admit.Request{Query: q, Tenant: qr.Tenant, Priority: qr.Priority})
	if res.Err != nil {
		status, code := classify(res.Err)
		writeError(w, status, code, res.Err.Error())
		return
	}
	resp := QueryResponse{Idx: res.Idx, TubeJ: res.TubeJ, TubeV: res.TubeV}
	if q.Kind == serve.SubmatrixMax {
		resp.Pos = &PosJSON{Row: res.Pos.Row, Col: res.Pos.Col, Val: Entry(res.Pos.Val)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeDecodeError maps a request-body decode failure: a body past the
// MaxBytesReader cap is 413, anything else malformed is 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding body: %v", err))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Pool:  s.front.Pool().Stats(),
		Front: s.front.Stats(),
	})
}

// buildQuery converts the JSON request into a pool query: it
// materializes the matrices and resolves an index_id through the
// registry. The caller screens the query (serve.Query.Screen) before
// admission. On failure it returns the HTTP status and short code
// alongside the error: 404/"not_found" for an unknown index_id,
// 400/"bad_request" otherwise.
func (s *Server) buildQuery(qr *QueryRequest) (serve.Query, int, string, error) {
	bad := func(err error) (serve.Query, int, string, error) {
		return serve.Query{}, http.StatusBadRequest, "bad_request", err
	}
	switch qr.Kind {
	case "row-minima", "staircase-row-minima":
		a, err := denseOf(qr.A, "a")
		if err != nil {
			return bad(err)
		}
		kind := serve.RowMinima
		if qr.Kind == "staircase-row-minima" {
			kind = serve.StaircaseRowMinima
		}
		return serve.Query{Kind: kind, A: a}, 0, "", nil
	case "tube-maxima":
		d, err := denseOf(qr.D, "d")
		if err != nil {
			return bad(err)
		}
		e, err := denseOf(qr.E, "e")
		if err != nil {
			return bad(err)
		}
		var c marray.Composite
		if err := catch(func() { c = marray.NewComposite(d, e) }); err != nil {
			return bad(err)
		}
		return serve.Query{Kind: serve.TubeMaxima, C: c}, 0, "", nil
	case "submax", "range-row-minima":
		ix, ok := s.lookupIndex(qr.IndexID)
		if !ok {
			return serve.Query{}, http.StatusNotFound, "not_found",
				fmt.Errorf("unknown index_id %q", qr.IndexID)
		}
		kind := serve.SubmatrixMax
		if qr.Kind == "range-row-minima" {
			kind = serve.RangeRowMinima
		}
		return serve.Query{Kind: kind, Index: ix, R1: qr.R1, R2: qr.R2, C1: qr.C1, C2: qr.C2}, 0, "", nil
	default:
		return bad(fmt.Errorf("unknown kind %q (want row-minima, staircase-row-minima, tube-maxima, submax, or range-row-minima)", qr.Kind))
	}
}

// denseOf materializes the JSON rows, rejecting empty or ragged input.
func denseOf(rows [][]Entry, name string) (marray.Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("matrix %q is empty", name)
	}
	conv := make([][]float64, len(rows))
	n := len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("matrix %q is ragged: row %d has %d entries, want %d", name, i, len(r), n)
		}
		conv[i] = make([]float64, n)
		for j, e := range r {
			conv[i][j] = float64(e)
		}
	}
	var d *marray.Dense
	if err := catch(func() { d = marray.FromRows(conv) }); err != nil {
		return nil, err
	}
	return d, nil
}

// catch converts a thrown merr failure into a returned error.
func catch(f func()) (err error) {
	defer merr.Catch(&err)
	f()
	return nil
}

// classify maps a serving error to its HTTP status and short code.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, serve.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, merr.ErrCanceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, merr.ErrNotMonge),
		errors.Is(err, merr.ErrNotInverseMonge),
		errors.Is(err, merr.ErrNotStaircase),
		errors.Is(err, merr.ErrDimensionMismatch):
		return http.StatusBadRequest, "bad_request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests {
		// A fail-fast rejection clears quickly; hint an immediate retry
		// window rather than a long penalty box.
		w.Header().Set("Retry-After", strconv.Itoa(1))
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
