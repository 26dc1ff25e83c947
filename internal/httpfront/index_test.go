package httpfront

// Tests for the index endpoints and the error paths that previously
// lacked pins: malformed JSON bodies, oversized requests, and query
// kind dispatch — each asserting the exact status code and short error
// code of the typed mapping.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"monge/internal/marray"
	"monge/internal/mindex"
	"monge/internal/obs"
)

// entriesOf converts a matrix for a JSON body; Entry's marshaller turns
// +Inf (blocked) entries into null tokens.
func entriesOf(a marray.Matrix) [][]Entry {
	out := make([][]Entry, a.Rows())
	for i := range out {
		out[i] = make([]Entry, a.Cols())
		for j := range out[i] {
			out[i][j] = Entry(a.At(i, j))
		}
	}
	return out
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
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

// errCode decodes the short code of a non-200 body.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decoding error body %q: %v", body, err)
	}
	return er.Code
}

func buildIndexHTTP(t *testing.T, ts *httptest.Server, a marray.Matrix) IndexResponse {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/index", map[string]any{"a": entriesOf(a)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/index: status %d, body %s", resp.StatusCode, body)
	}
	var ir IndexResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestIndexBuildAndSubmax pins the full index round trip: preprocess
// once over HTTP, then answer submatrix-maximum queries index-exact
// against the brute oracle.
func TestIndexBuildAndSubmax(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(21))
	a := marray.RandomMongeInt(rng, 24, 20, 4)
	ir := buildIndexHTTP(t, ts, a)
	if ir.Rows != 24 || ir.Cols != 20 || ir.Bytes <= 0 || ir.IndexID == "" {
		t.Fatalf("index response %+v", ir)
	}
	for k := 0; k < 20; k++ {
		r1, c1 := rng.Intn(24), rng.Intn(20)
		r2, c2 := r1+rng.Intn(24-r1), c1+rng.Intn(20-c1)
		want := mindex.SubmatrixMaxBrute(a, r1, r2, c1, c2)
		resp, body := postJSON(t, ts, "/v1/query", map[string]any{
			"kind": "submax", "index_id": ir.IndexID, "r1": r1, "r2": r2, "c1": c1, "c2": c2,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submax: status %d, body %s", resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Pos == nil || qr.Pos.Row != want.Row || qr.Pos.Col != want.Col || float64(qr.Pos.Val) != want.Val {
			t.Fatalf("submax [%d:%d,%d:%d]: got %+v, want %+v", r1, r2, c1, c2, qr.Pos, want)
		}
	}
}

// TestIndexRangeRowMinima pins the row-range kind against a scan
// oracle, over a staircase input sent with null tokens; fully blocked
// rows answer -1.
func TestIndexRangeRowMinima(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(22))
	s := marray.RandomStaircaseMonge(rng, 12, 10)
	ir := buildIndexHTTP(t, ts, s)
	resp, body := postJSON(t, ts, "/v1/query", map[string]any{
		"kind": "range-row-minima", "index_id": ir.IndexID, "r1": 2, "r2": 9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range-row-minima: status %d, body %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 9; r++ {
		best, bj := math.Inf(1), -1
		for j := 0; j < 10; j++ {
			if v := s.At(r, j); v < best {
				best, bj = v, j
			}
		}
		if qr.Idx[r-2] != bj {
			t.Fatalf("row %d: got %d, want %d", r, qr.Idx[r-2], bj)
		}
	}
}

// TestIndexErrorPaths pins the typed mapping around the index
// endpoints: unknown ids are 404, malformed rectangles and non-closed
// staircase blocking are 400.
func TestIndexErrorPaths(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(23))
	ir := buildIndexHTTP(t, ts, marray.RandomMonge(rng, 8, 8))

	resp, body := postJSON(t, ts, "/v1/query", map[string]any{
		"kind": "submax", "index_id": "ix-999", "r1": 0, "r2": 0, "c1": 0, "c2": 0,
	})
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Fatalf("unknown index: status %d code %q", resp.StatusCode, errCode(t, body))
	}

	for name, q := range map[string]map[string]any{
		"bad-rect":     {"kind": "submax", "index_id": ir.IndexID, "r1": 5, "r2": 2, "c1": 0, "c2": 7},
		"col-overflow": {"kind": "submax", "index_id": ir.IndexID, "r1": 0, "r2": 7, "c1": 0, "c2": 8},
		"bad-rows":     {"kind": "range-row-minima", "index_id": ir.IndexID, "r1": -1, "r2": 3},
	} {
		resp, body := postJSON(t, ts, "/v1/query", q)
		if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_request" {
			t.Fatalf("%s: status %d code %q", name, resp.StatusCode, errCode(t, body))
		}
	}

	// Blocking that is not right-closed (finite after null) is rejected
	// before any build work.
	resp, body = postJSON(t, ts, "/v1/index", map[string]any{
		"a": [][]Entry{{1, Entry(math.Inf(1)), 2}, {0, 1, 2}},
	})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_request" {
		t.Fatalf("non-right-closed: status %d code %q", resp.StatusCode, errCode(t, body))
	}
	// Blocking that widens downward is not down-closed.
	resp, body = postJSON(t, ts, "/v1/index", map[string]any{
		"a": [][]Entry{{1, Entry(math.Inf(1))}, {0, 1}},
	})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_request" {
		t.Fatalf("non-down-closed: status %d code %q", resp.StatusCode, errCode(t, body))
	}
}

// TestIndexRegistryCapacity pins the registry bound: build maxIndexes
// indexes, then the next POST /v1/index is 429 with its own code while
// queries against existing ids keep answering.
func TestIndexRegistryCapacity(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	tiny := marray.FromRows([][]float64{{1, 2}, {0, 1}})
	var last IndexResponse
	for i := 0; i < maxIndexes; i++ {
		last = buildIndexHTTP(t, ts, tiny)
	}
	resp, body := postJSON(t, ts, "/v1/index", map[string]any{"a": entriesOf(tiny)})
	if resp.StatusCode != http.StatusTooManyRequests || errCode(t, body) != "index_capacity" {
		t.Fatalf("over capacity: status %d code %q", resp.StatusCode, errCode(t, body))
	}
	resp, _ = postJSON(t, ts, "/v1/query", map[string]any{
		"kind": "submax", "index_id": last.IndexID, "r1": 0, "r2": 1, "c1": 0, "c2": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("existing index after capacity: status %d", resp.StatusCode)
	}
}

// TestQueryMalformedJSON pins the decode error path: a syntactically
// broken body, or a well-formed object followed by anything but
// whitespace, is 400/"bad_request" on both POST endpoints.
func TestQueryMalformedJSON(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"kind": "row-minima", "a": [[1,`},
		{"/v1/index", `{"kind": "row-minima", "a": [[1,`},
		{"/v1/query", `{"kind":"row-minima","a":[[1]]} garbage`},
		{"/v1/query", `{"kind":"row-minima","a":[[1]]}{}`},
		{"/v1/index", `{"a":[[1,2],[0,1]]} garbage`},
		{"/v1/index", "{\"a\":[[1,2],[0,1]]}\n]"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || errCode(t, out.Bytes()) != "bad_request" {
			t.Fatalf("%s %q: status %d code %q", tc.path, tc.body, resp.StatusCode, errCode(t, out.Bytes()))
		}
	}
}

// TestQueryOversizedBody pins the 413 path: a body past maxBodyBytes is
// rejected with "body_too_large" before reaching any kernel, whether
// it declares its Content-Length or arrives chunked with none.
func TestQueryOversizedBody(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 256
	t.Cleanup(func() { maxBodyBytes = old })
	ts, _, _ := newTestServer(t, nil)
	big := `{"kind":"row-minima","a":[[` + strings.Repeat("1,", 400) + `1]]}`
	for _, path := range []string{"/v1/query", "/v1/index"} {
		for _, chunked := range []bool{false, true} {
			// Hiding the reader's type hides its length, so the client
			// sends the body chunked.
			var body io.Reader = strings.NewReader(big)
			if chunked {
				body = struct{ io.Reader }{body}
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, body)
			if err != nil {
				t.Fatal(err)
			}
			if got := req.ContentLength; (got == 0) != chunked || (!chunked && got <= maxBodyBytes) {
				t.Fatalf("chunked=%v: request Content-Length %d", chunked, got)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			_, _ = out.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, out.Bytes()) != "body_too_large" {
				t.Fatalf("%s chunked=%v: status %d code %q", path, chunked, resp.StatusCode, errCode(t, out.Bytes()))
			}
		}
	}
}

// TestQueryKindDispatch pins dispatch: every known kind routes (missing
// payloads fail with 400, not 500), and an unknown kind is
// 400/"bad_request" naming the accepted kinds.
func TestQueryKindDispatch(t *testing.T) {
	ts, _, _ := newTestServer(t, nil)
	for _, kind := range []string{"row-minima", "staircase-row-minima", "tube-maxima", "submax", "range-row-minima"} {
		resp, body := postJSON(t, ts, "/v1/query", map[string]any{"kind": kind})
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("kind %q with empty payload: status %d, body %s", kind, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts, "/v1/query", map[string]any{"kind": "nope"})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_request" {
		t.Fatalf("unknown kind: status %d code %q", resp.StatusCode, errCode(t, body))
	}
	if !strings.Contains(string(body), "submax") {
		t.Fatalf("unknown-kind error must name the accepted kinds, body %s", body)
	}
}

// TestIndexMetricsQueriesServed pins the served-query counter for the
// index kinds, which the pool answers on the submitting goroutine:
// after index traffic over HTTP, /metrics reports one
// monge_queries_served{site="serve"} per query the pool answered — one
// per request, plus one per chaos ticket-drop redelivery when
// FAULT_RATE injects them.
func TestIndexMetricsQueriesServed(t *testing.T) {
	old := obs.Global()
	t.Cleanup(func() { obs.SetGlobal(old) })
	obs.SetGlobal(obs.NewObserver())

	ts, p, f := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(23))
	ir := buildIndexHTTP(t, ts, marray.RandomMongeInt(rng, 16, 12, 3))
	const n = 24
	for k := 0; k < n; k++ {
		body := map[string]any{"kind": "submax", "index_id": ir.IndexID, "r1": k % 16, "r2": 15, "c1": k % 12, "c2": 11}
		if k%2 == 1 {
			body = map[string]any{"kind": "range-row-minima", "index_id": ir.IndexID, "r1": 0, "r2": k % 16}
		}
		if resp, out := postJSON(t, ts, "/v1/query", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, body %s", k, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	answered := p.Stats().Queries
	if redelivered := f.Stats().Retried; answered != n+redelivered {
		t.Fatalf("pool answered %d queries for %d requests and %d redeliveries", answered, n, redelivered)
	}
	if want := fmt.Sprintf("monge_queries_served{site=\"serve\"} %d\n", answered); !strings.Contains(string(metrics), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
	}
}
