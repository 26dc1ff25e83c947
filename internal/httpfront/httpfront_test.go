package httpfront

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"monge/internal/admit"
	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/serve"
	"monge/internal/smawk"
)

func newTestServer(t testing.TB, opt *admit.Options) (*httptest.Server, *serve.Pool, *admit.Front) {
	t.Helper()
	p := serve.New(pram.CRCW, serve.Options{Workers: 2, QueueDepth: 8})
	f := admit.New(p, opt)
	ts := httptest.NewServer(New(f).Handler())
	t.Cleanup(func() {
		ts.Close()
		p.Close()
		f.Drain()
	})
	return ts, p, f
}

func postQuery(t *testing.T, ts *httptest.Server, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func rowsOf(a marray.Matrix) [][]float64 {
	out := make([][]float64, a.Rows())
	for i := range out {
		out[i] = make([]float64, a.Cols())
		for j := range out[i] {
			out[i][j] = a.At(i, j)
		}
	}
	return out
}

// TestQueryRowMinima pins the happy path: a Monge array in, the exact
// SMAWK row minima out.
func TestQueryRowMinima(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(1))
	a := marray.RandomMonge(rng, 12, 15)
	want := smawk.RowMinima(a)

	resp, body := postQuery(t, ts, map[string]any{"kind": "row-minima", "a": rowsOf(a)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Idx) != len(want) {
		t.Fatalf("got %d indices, want %d", len(qr.Idx), len(want))
	}
	for r := range want {
		if qr.Idx[r] != want[r] {
			t.Fatalf("row %d: %d, want %d", r, qr.Idx[r], want[r])
		}
	}
}

// TestQueryStaircaseNulls pins the JSON staircase encoding: null
// entries decode as +Inf and the answer matches the staircase kernel.
func TestQueryStaircaseNulls(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(2))
	s := marray.RandomStaircaseMonge(rng, 8, 8)
	want := smawk.StaircaseRowMinima(s)

	// Hand-build the JSON so blocked entries really are null tokens.
	var sb strings.Builder
	sb.WriteString(`{"kind":"staircase-row-minima","a":[`)
	for i := 0; i < s.Rows(); i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("[")
		for j := 0; j < s.Cols(); j++ {
			if j > 0 {
				sb.WriteString(",")
			}
			if v := s.At(i, j); v == v && !isInf(v) {
				fmt.Fprintf(&sb, "%g", v)
			} else {
				sb.WriteString("null")
			}
		}
		sb.WriteString("]")
	}
	sb.WriteString("]}")

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for r := range want {
		if qr.Idx[r] != want[r] {
			t.Fatalf("row %d: %d, want %d", r, qr.Idx[r], want[r])
		}
	}
}

func isInf(v float64) bool { return v > 1e308 || v < -1e308 }

// TestQueryTubeMaxima pins the composite path end to end.
func TestQueryTubeMaxima(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(3))
	c := marray.RandomComposite(rng, 4, 5, 6)
	wantJ, wantV := smawk.TubeMaxima(c)

	resp, body := postQuery(t, ts, map[string]any{
		"kind": "tube-maxima", "d": rowsOf(c.D), "e": rowsOf(c.E),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	for x := range wantJ {
		for k := range wantJ[x] {
			if qr.TubeJ[x][k] != wantJ[x][k] || qr.TubeV[x][k] != wantV[x][k] {
				t.Fatalf("tube (%d,%d): j=%d v=%g, want j=%d v=%g",
					x, k, qr.TubeJ[x][k], qr.TubeV[x][k], wantJ[x][k], wantV[x][k])
			}
		}
	}
}

// TestBadRequests pins the 400 mapping: malformed JSON, unknown kind,
// ragged and non-Monge matrices all reject with code bad_request.
func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	for name, body := range map[string]string{
		"malformed":     `{"kind": `,
		"unknown-kind":  `{"kind":"column-minima","a":[[1]]}`,
		"empty-matrix":  `{"kind":"row-minima","a":[]}`,
		"ragged":        `{"kind":"row-minima","a":[[1,2],[3]]}`,
		"unknown-field": `{"kind":"row-minima","a":[[1]],"bogus":1}`,
		"not-monge":     `{"kind":"row-minima","a":[[9,0],[0,9]]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, er := ErrorResponse{}, json.NewDecoder(resp.Body).Decode
		_ = er(&raw)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%+v)", name, resp.StatusCode, raw)
		}
		if raw.Code != "bad_request" {
			t.Errorf("%s: code %q, want bad_request", name, raw.Code)
		}
	}
}

// TestOverloadMapsTo429 pins the load-shedding mapping: a saturated
// front returns 429 with a Retry-After hint and code overloaded.
func TestOverloadMapsTo429(t *testing.T) {
	ts, _, front := newTestServer(t, &admit.Options{MaxInflight: 1, ShedFraction: 1})
	rng := rand.New(rand.NewSource(4))
	a := marray.RandomMonge(rng, 8, 8)

	// Hold the only inflight slot with a slow direct admission, then hit
	// the HTTP path: it must shed instantly.
	slow := marray.Func{M: 8, N: 8, F: func(i, j int) float64 {
		time.Sleep(200 * time.Microsecond)
		return a.At(i, j)
	}}
	if _, err := front.Admit(t.Context(), admit.Request{Query: serve.Query{Kind: serve.RowMinima, A: slow}, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	resp, body := postQuery(t, ts, map[string]any{"kind": "row-minima", "a": rowsOf(a)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "overloaded" {
		t.Fatalf("code %q, want overloaded", er.Code)
	}
}

// TestDeadlineMapsTo504 pins the deadline mapping: an unmeetable
// deadline_ms returns 504 with code deadline_exceeded.
func TestDeadlineMapsTo504(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(5))
	a := marray.RandomMonge(rng, 32, 32)
	slow := make([][]float64, 32)
	base := rowsOf(a)
	for i := range slow {
		slow[i] = base[i]
	}
	// A 1ms deadline against a query whose entries each sleep: the
	// deadline fires while queued or mid-evaluation either way.
	resp, body := postQuery(t, ts, map[string]any{
		"kind": "row-minima", "a": slow, "deadline_ms": 1,
	})
	// Tiny matrices can still finish within 1ms on a fast machine; both
	// outcomes are legal, but a failure must be the typed 504.
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 200 or 504; body %s", resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Code != "deadline_exceeded" {
			t.Fatalf("code %q, want deadline_exceeded", er.Code)
		}
	}
}

// TestClosedMapsTo503 pins the draining/closed mapping.
func TestClosedMapsTo503(t *testing.T) {
	p := serve.New(pram.CRCW, serve.Options{Workers: 1})
	f := admit.New(p, nil)
	ts := httptest.NewServer(New(f).Handler())
	defer ts.Close()
	p.Close()
	f.Drain()

	rng := rand.New(rand.NewSource(6))
	resp, body := postQuery(t, ts, map[string]any{"kind": "row-minima", "a": rowsOf(marray.RandomMonge(rng, 6, 6))})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "closed" {
		t.Fatalf("code %q, want closed", er.Code)
	}
}

// TestStatsEndpoint pins /v1/stats: pool state and front counters are
// served as JSON and move with traffic.
func TestStatsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(7))
	postQuery(t, ts, map[string]any{"kind": "row-minima", "a": rowsOf(marray.RandomMonge(rng, 8, 8))})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pool.State != serve.StateServing {
		t.Fatalf("pool state %q, want %q", st.Pool.State, serve.StateServing)
	}
	if st.Front.Admitted < 1 {
		t.Fatalf("front admitted %d, want >= 1", st.Front.Admitted)
	}
}

// TestExpvarEndpoint pins /debug/vars availability (the monge_obs
// variable is published on handler construction).
func TestExpvarEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["monge_obs"]; !ok {
		t.Fatal("/debug/vars has no monge_obs variable")
	}
}
