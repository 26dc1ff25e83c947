package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"monge"
	"monge/internal/batch"
	"monge/internal/httpfront"
	"monge/internal/marray"
	"monge/internal/smawk"
)

// wireLoad posts pre-encoded /v1/query bodies over keep-alive loopback
// HTTP to an in-process httpfront server: httpfront → admit → serve.
// Request i sends body i mod wireInputs; every fourth body is a
// staircase-row-minima query with null entries, the rest row-minima.
type wireLoad struct {
	sz sizes

	inputs []*marray.Dense
	stair  []bool
	bodies [][]byte
	want   [][]int
	held   [][]byte // response bodies awaiting their check

	dp      *monge.DriverPool
	handler *tracedHandler
	srv     *http.Server
	served  chan error
	client  *http.Client
	url     string
	direct  *batch.Driver // the width-1 native driver a pool worker runs
}

func (w *wireLoad) describe() string {
	return fmt.Sprintf("POST /v1/query over loopback, %d dense %dx%d inputs (3 of 4 row-minima, 1 of 4 staircase-row-minima with nulls), round-robin",
		w.sz.wireInputs, w.sz.wireN, w.sz.wireN)
}

func (w *wireLoad) prepare(rng *rand.Rand) error {
	w.held = make([][]byte, w.checkEvery())
	n := w.sz.wireN
	for k := 0; k < w.sz.wireInputs; k++ {
		a := marray.RandomMonge(rng, n, n)
		stair := k%4 == 3
		kind := "row-minima"
		if stair {
			kind = "staircase-row-minima"
			a = marray.Materialize(staircase(rng, a))
		}
		rows := make([][]httpfront.Entry, n)
		for i := range rows {
			rows[i] = make([]httpfront.Entry, n)
			for j := range rows[i] {
				rows[i][j] = httpfront.Entry(a.At(i, j))
			}
		}
		body, err := json.Marshal(httpfront.QueryRequest{Kind: kind, A: rows})
		if err != nil {
			return err
		}
		want := smawk.RowMinimaBrute(a)
		if stair {
			want = smawk.StaircaseRowMinimaBrute(a)
		}
		w.inputs = append(w.inputs, a)
		w.stair = append(w.stair, stair)
		w.bodies = append(w.bodies, body)
		w.want = append(w.want, want)
	}
	return nil
}

func (w *wireLoad) setup() error {
	w.dp = newPool()
	w.direct = newWorkerDriver()
	w.handler = &tracedHandler{inner: httpfront.New(w.dp.Front()).Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.handler}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/query"
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return warmUp(w, w.sz.wireWarmup)
}

func (w *wireLoad) verifyStack() error { return checkWarmup(w, w.sz.wireWarmup) }

// post sends body k; a traced request carries its ids in headers so
// the handler wrapper can record its span.
func (w *wireLoad) post(k int, r *tracedReq) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(w.bodies[k]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r != nil {
		req.Header.Set(hdrReq, strconv.FormatInt(r.id, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(r.span, 10))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (w *wireLoad) request(i int) error {
	body, err := w.post(i%len(w.bodies), nil)
	w.held[i%len(w.held)] = body
	return err
}

func (w *wireLoad) check(i int) error { return w.verify(i, take(w.held, i)) }

// verify compares a response body with the brute-force minima.
func (w *wireLoad) verify(i int, body []byte) error {
	k := i % len(w.bodies)
	var resp httpfront.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return mismatch("request %d: undecodable response: %v", i, err)
	}
	if !sameInts(resp.Idx, w.want[k]) {
		return mismatch("request %d (input %d): HTTP answer differs from the brute-force minima", i, k)
	}
	return nil
}

// poolRequest is body k's query as the handler hands it to admission.
func (w *wireLoad) poolRequest(k int) monge.PoolRequest {
	if w.stair[k] {
		return monge.StaircaseRowMinimaRequest(w.inputs[k])
	}
	return monge.RowMinimaRequest(w.inputs[k])
}

func (w *wireLoad) replay(i int, tr *tracer) error {
	k := i % len(w.bodies)
	w.handler.tr.Store(tr)
	r := tr.begin()

	s := time.Now()
	body, err := w.post(k, r)
	roundTrip := r.child("wire.roundtrip", s, time.Now(), true)
	if err != nil {
		return fmt.Errorf("traced request %d: %w", i, err)
	}
	handler, ok := tr.handlerDur(r.id)
	if !ok {
		return fmt.Errorf("traced request %d: the handler recorded no span", i)
	}

	s = time.Now()
	var qr httpfront.QueryRequest
	decodeErr := json.Unmarshal(w.bodies[k], &qr)
	r.child("httpfront.decode", s, time.Now(), false)

	req := w.poolRequest(k)
	s = time.Now()
	res := w.dp.Front().Do(bg, req)
	do := r.child("admit.do", s, time.Now(), false)

	s = time.Now()
	res2, err := submit(w.dp, req)
	roundTrip2 := r.child("serve.roundtrip", s, time.Now(), false)
	if err != nil {
		return err
	}

	s = time.Now()
	var idx []int
	if w.stair[k] {
		idx = w.direct.StaircaseRowMinima(w.inputs[k])
	} else {
		idx = w.direct.RowMinima(w.inputs[k])
	}
	direct := r.child("batch.query", s, time.Now(), false)

	s = time.Now()
	_, encodeErr := json.Marshal(httpfront.QueryResponse{Idx: res.Idx})
	r.child("httpfront.encode", s, time.Now(), false)
	r.end()

	tr.observe("wire.transport", us(roundTrip-handler))
	tr.observeValue("wire.request_kb", float64(len(w.bodies[k]))/1024)
	tr.observe("admit.self", us(do-roundTrip2))
	tr.observe("serve.handoff", us(roundTrip2-direct))

	if err := errors.Join(decodeErr, encodeErr, res.Err, res2.Err); err != nil {
		return fmt.Errorf("traced request %d: %w", i, err)
	}
	if err := w.verify(i, body); err != nil {
		return err
	}
	for _, got := range [][]int{res.Idx, res2.Idx, idx} {
		if !sameInts(got, w.want[k]) {
			return mismatch("traced request %d (input %d): a layer's answer differs from the brute-force minima", i, k)
		}
	}
	return nil
}

func (w *wireLoad) tailPercentile() float64 { return 99 }
func (w *wireLoad) checkEvery() int         { return 256 }

func (w *wireLoad) cacheStats() (int64, int64) {
	st := w.dp.Stats()
	return st.CacheHits, st.CacheMisses
}

func (w *wireLoad) layerMetrics(map[string]float64) {}

func (w *wireLoad) teardown() {
	if w.srv != nil {
		_ = w.srv.Close() // the closed loop leaves no request in flight
		<-w.served
		w.client.CloseIdleConnections()
		w.srv = nil
	}
	if w.dp != nil {
		w.direct.Close()
		w.dp.Close()
		w.dp = nil
	}
}

// Trace headers carry a traced request's id and client span id.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tracedHandler wraps Server.Handler(). With a tracer installed it
// records a span for each request that carries the trace headers;
// otherwise it costs one atomic load.
type tracedHandler struct {
	inner http.Handler
	tr    atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(rw, r)
		return
	}
	id, err1 := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	parent, err2 := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	start := time.Now()
	h.inner.ServeHTTP(rw, r)
	if err1 == nil && err2 == nil {
		tr.handlerSpan(id, parent, start, time.Now())
	}
}

// submit runs a query through the pool without admission: Submit plus
// Ticket.Result.
func submit(dp *monge.DriverPool, req monge.PoolRequest) (monge.PoolResult, error) {
	tk, err := dp.Front().Pool().Submit(req.Query)
	if err != nil {
		return monge.PoolResult{}, fmt.Errorf("submit: %w", err)
	}
	return tk.Result(), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
