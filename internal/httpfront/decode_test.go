package httpfront

// Tests for the byte-level request decoder: FuzzDecodeRequest holds it
// to encoding/json on arbitrary bodies, and the pins below cover the
// exported types' round trip, the accepted keys and the allocation
// bound.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"monge/internal/admit"
	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/serve"
)

// refQuery and refIndex mirror QueryRequest and IndexRequest for the
// reference decode. Matrix entries are *float64 (nil is null, +Inf), so
// the reference does not go through Entry.
type refQuery struct {
	Kind       string       `json:"kind"`
	A          [][]*float64 `json:"a"`
	D          [][]*float64 `json:"d"`
	E          [][]*float64 `json:"e"`
	IndexID    string       `json:"index_id"`
	R1         int          `json:"r1"`
	R2         int          `json:"r2"`
	C1         int          `json:"c1"`
	C2         int          `json:"c2"`
	Tenant     string       `json:"tenant"`
	Priority   int          `json:"priority"`
	DeadlineMS int          `json:"deadline_ms"`
}

type refIndex struct {
	A [][]*float64 `json:"a"`
}

// refDecode is the reference decoder: encoding/json with unknown keys
// rejected and nothing but whitespace allowed after the value.
func refDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return errors.New("trailing data")
	}
	return nil
}

// sameMatrix compares a decoded field with the reference rows under the
// shape rules: no rows or an empty first row is the zero field, a row
// of another width is the ragged error, anything else must hold the
// same entries bit for bit.
func sameMatrix(name string, got matrix, rows [][]*float64) error {
	if len(rows) == 0 || len(rows[0]) == 0 {
		if got.d != nil || got.err != nil {
			return fmt.Errorf("matrix %q: got %v / %v, want empty", name, got.d, got.err)
		}
		return nil
	}
	n := len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			want := fmt.Sprintf("matrix %q is ragged: row %d has %d entries, want %d", name, i, len(r), n)
			if got.err == nil || got.err.Error() != want {
				return fmt.Errorf("matrix %q: got error %v, want %q", name, got.err, want)
			}
			return nil
		}
	}
	if got.err != nil || got.d == nil || got.d.Rows() != len(rows) || got.d.Cols() != n {
		return fmt.Errorf("matrix %q: got %v / %v, want %dx%d", name, got.d, got.err, len(rows), n)
	}
	for i, r := range rows {
		for j, e := range r {
			want := math.Inf(1)
			if e != nil {
				want = *e
			}
			if g := got.d.At(i, j); math.Float64bits(g) != math.Float64bits(want) {
				return fmt.Errorf("matrix %q (%d,%d): got %v, want %v", name, i, j, g, want)
			}
		}
	}
	return nil
}

// agree decodes body with both decoders for one endpoint and reports
// any difference: one erring alone, or unequal values.
func agree(body []byte, index bool) error {
	fields, ref := queryFields, any(&refQuery{})
	if index {
		fields, ref = indexFields, &refIndex{}
	}
	got, err := decodeRequest(body, fields)
	refErr := refDecode(body, ref)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("index=%v: decoder error %v, encoding/json error %v", index, err, refErr)
	}
	if err != nil {
		return nil
	}
	if index {
		return sameMatrix("a", got.A, ref.(*refIndex).A)
	}
	want := ref.(*refQuery)
	gotEnv := refQuery{Kind: got.Kind, IndexID: got.IndexID, R1: got.R1, R2: got.R2, C1: got.C1, C2: got.C2,
		Tenant: got.Tenant, Priority: got.Priority, DeadlineMS: got.DeadlineMS}
	wantEnv := *want
	wantEnv.A, wantEnv.D, wantEnv.E = nil, nil, nil
	if !reflect.DeepEqual(gotEnv, wantEnv) {
		return fmt.Errorf("envelope: got %+v, want %+v", gotEnv, wantEnv)
	}
	return errors.Join(sameMatrix("a", got.A, want.A), sameMatrix("d", got.D, want.D), sameMatrix("e", got.E, want.E))
}

// FuzzDecodeRequest holds the byte-level decoder to encoding/json: on
// any body both either err or decode equal values (floats bit for bit,
// -0 kept), for both POST endpoints. Every body is also served over
// HTTP, where no input may panic the handler or answer 500. The seeds
// are the committed corpus in testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	ts, _, _ := newTestServer(f, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, index := range []bool{false, true} {
			if err := agree(body, index); err != nil {
				t.Fatalf("body %q: %v", body, err)
			}
		}
		for _, path := range []string{"/v1/query", "/v1/index"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s %q: %v", path, body, err)
			}
			var out bytes.Buffer
			_, _ = out.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusInternalServerError {
				t.Fatalf("%s %q: status %d, body %s", path, body, resp.StatusCode, out.Bytes())
			}
		}
	})
}

// TestDecodeExportedTypes pins that bodies marshalled from the exported
// request types, as clients such as the benchmark build them, decode to
// the same entries bit for bit (null as +Inf, -0 kept), and still
// round-trip through encoding/json.
func TestDecodeExportedTypes(t *testing.T) {
	inf := Entry(math.Inf(1))
	rows := [][]Entry{{1.5, Entry(math.Copysign(0, -1)), inf}, {-2e-300, 3, inf}}
	qr := QueryRequest{Kind: "staircase-row-minima", A: rows, D: rows[:1], IndexID: "ix-1",
		R1: 1, R2: -2, C1: 3, C2: 4, Tenant: "t", Priority: 5, DeadlineMS: 6}
	body, err := json.Marshal(qr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(body, queryFields)
	if err != nil {
		t.Fatal(err)
	}
	env := QueryRequest{Kind: got.Kind, IndexID: got.IndexID, R1: got.R1, R2: got.R2, C1: got.C1, C2: got.C2,
		Tenant: got.Tenant, Priority: got.Priority, DeadlineMS: got.DeadlineMS}
	wantEnv := qr
	wantEnv.A, wantEnv.D = nil, nil
	if !reflect.DeepEqual(env, wantEnv) {
		t.Fatalf("envelope %+v, want %+v", env, wantEnv)
	}
	same := func(name string, m matrix, want [][]Entry) {
		t.Helper()
		d, err := m.dense(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(d.At(i, j)) != math.Float64bits(float64(want[i][j])) {
					t.Fatalf("%s (%d,%d): %v, want %v", name, i, j, d.At(i, j), want[i][j])
				}
			}
		}
	}
	same("a", got.A, rows)
	same("d", got.D, rows[:1])
	if _, err := got.E.dense("e"); err == nil || err.Error() != `matrix "e" is empty` {
		t.Fatalf("absent e: %v", err)
	}

	var back QueryRequest
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, body) {
		t.Fatalf("QueryRequest round trip: %s, want %s", again, body)
	}

	body, err = json.Marshal(IndexRequest{A: rows})
	if err != nil {
		t.Fatal(err)
	}
	ir, err := decodeRequest(body, indexFields)
	if err != nil {
		t.Fatal(err)
	}
	same("a", ir.A, rows)
}

// TestDecodeFieldsMatchTags pins the accepted keys to the exported
// types' JSON names, so a field added there is not rejected here.
func TestDecodeFieldsMatchTags(t *testing.T) {
	tags := func(v any) []string {
		var out []string
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			out = append(out, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
		}
		return out
	}
	if got := tags(QueryRequest{}); !reflect.DeepEqual(got, queryFields) {
		t.Fatalf("QueryRequest keys %v, decoder accepts %v", got, queryFields)
	}
	if got := tags(IndexRequest{}); !reflect.DeepEqual(got, indexFields) {
		t.Fatalf("IndexRequest keys %v, decoder accepts %v", got, indexFields)
	}
}

// TestDecodeAllocationBoundedByBody pins the allocation bound: however
// the matrices in a body are shaped, and however often a key repeats,
// serving it allocates a small multiple of the body. The shapes are
// the ones a size guess could be fooled by: a wide first row followed
// by thousands of empty rows (which must not cost rows x width
// entries), and thousands of repeated matrices, each of which could
// otherwise size an allocation from the whole rest of the body.
func TestDecodeAllocationBoundedByBody(t *testing.T) {
	wide := "[[" + strings.Repeat("0,", 999) + "0]" + strings.Repeat(",[]", 4999) + "]"
	dup := func(matrix string, times int) string {
		return `{"kind":"row-minima"` + strings.Repeat(`,"a":`+matrix, times) + "}"
	}
	for _, tc := range []struct {
		name, body, code, want string
	}{
		{"wide-first-row", `{"kind":"row-minima","a":` + wide + "}", "bad_request", "ragged"},
		{"duplicate-null-rows", dup("[[],null]", 20000), "bad_request", "empty"},
		{"duplicate-wide-rows", dup("[["+strings.Repeat("0,", 99)+"0]"+strings.Repeat(",[]", 100)+"]", 400), "bad_request", "ragged"},
		{"duplicate-matrices", dup("[[1,2],[3,4]]", 20000), "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, alloc := serveCounting(t, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(tc.body)))
			if tc.code == "" && rec.Code != http.StatusOK {
				t.Fatalf("status %d, body %s; want 200", rec.Code, rec.Body)
			}
			if tc.code != "" && (errCode(t, rec.Body.Bytes()) != tc.code || !strings.Contains(rec.Body.String(), tc.want)) {
				t.Fatalf("status %d, body %s; want %s %q", rec.Code, rec.Body, tc.code, tc.want)
			}
			// Each matrix reserves at most one 8-byte entry per two of
			// its bytes, append grows only by entries parsed, and the
			// body itself and the handler's own small change come on
			// top; the measured ratio is under 6.
			if limit := uint64(8*len(tc.body) + 64<<10); alloc > limit {
				t.Fatalf("serving a %d-byte body allocated %d bytes, limit %d", len(tc.body), alloc, limit)
			}
		})
	}
}

// TestReadBodyDeclaredLengthBounded pins that a declared Content-Length
// reserves at most bodyPresize before the body arrives: a request that
// announces the full cap and sends a few bytes allocates about that
// much, not the cap.
func TestReadBodyDeclaredLengthBounded(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"kind":"row-minima"}`))
	req.ContentLength = maxBodyBytes
	rec, alloc := serveCounting(t, req)
	if rec.Code == http.StatusOK || rec.Code == http.StatusInternalServerError {
		t.Fatalf("short body: status %d, body %s", rec.Code, rec.Body)
	}
	if limit := uint64(bodyPresize + 64<<10); alloc > limit {
		t.Fatalf("a body declared at %d bytes allocated %d before it arrived, limit %d", maxBodyBytes, alloc, limit)
	}
}

// serveCounting serves one request on a fresh handler and returns the
// response with the bytes allocated while serving it.
func serveCounting(t *testing.T, req *http.Request) (*httptest.ResponseRecorder, uint64) {
	t.Helper()
	p := serve.New(pram.CRCW, serve.Options{Workers: 1})
	f := admit.New(p, nil)
	t.Cleanup(func() {
		p.Close()
		f.Drain()
	})
	h := New(f).Handler()
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkDecodeRequest times decoding one benchmark-shaped body, a
// 64x64 Monge matrix as the exported types marshal it, with the
// byte-level decoder and with encoding/json into QueryRequest.
func BenchmarkDecodeRequest(b *testing.B) {
	a := marray.RandomMonge(rand.New(rand.NewSource(1)), 64, 64)
	rows := make([][]Entry, a.Rows())
	for i := range rows {
		rows[i] = make([]Entry, a.Cols())
		for j := range rows[i] {
			rows[i][j] = Entry(a.At(i, j))
		}
	}
	body, err := json.Marshal(QueryRequest{Kind: "row-minima", A: rows})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeRequest(body, queryFields); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var qr QueryRequest
			if err := json.Unmarshal(body, &qr); err != nil {
				b.Fatal(err)
			}
		}
	})
}
