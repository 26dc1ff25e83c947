package httpfront

// The request decoder: one pass over the body bytes that parses the
// matrix fields (a, d, e) straight into the flat row-major slice of one
// marray.Dense each and the small envelope fields in place. It accepts
// what encoding/json accepts for QueryRequest and IndexRequest with
// DisallowUnknownFields, and also rejects trailing data after the
// object. FuzzDecodeRequest holds it to that reference.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"monge/internal/marray"
)

// request is a decoded POST body: QueryRequest's fields with the
// matrices already in Dense form. An IndexRequest body fills only A.
type request struct {
	Kind           string
	A, D, E        matrix
	IndexID        string
	R1, R2, C1, C2 int
	Tenant         string
	Priority       int
	DeadlineMS     int
}

// matrix is one decoded matrix field. The zero value is a field that
// was absent, null or empty; err is set when its rows are ragged. Both
// are reported only when the query kind uses the field.
type matrix struct {
	d   *marray.Dense
	err error
}

// dense returns the field's matrix, or why the query cannot use it.
func (m matrix) dense(name string) (*marray.Dense, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.d == nil {
		return nil, fmt.Errorf("matrix %q is empty", name)
	}
	return m.d, nil
}

// queryFields and indexFields are the keys each POST endpoint accepts:
// the JSON names of QueryRequest's and IndexRequest's fields.
var (
	queryFields = []string{"kind", "a", "d", "e", "index_id", "r1", "r2", "c1", "c2", "tenant", "priority", "deadline_ms"}
	indexFields = []string{"a"}
)

// decodeBody reads r's body and decodes it, accepting only the keys in
// fields. A body past maxBodyBytes fails with *http.MaxBytesError.
func decodeBody(w http.ResponseWriter, r *http.Request, fields []string) (*request, error) {
	body, err := readBody(w, r)
	if err != nil {
		return nil, err
	}
	return decodeRequest(body, fields)
}

// readBody reads the whole body once through MaxBytesReader, whose
// error marks the cap; a Content-Length past the cap fails without
// reading. A declared length sizes the first buffer, but only up to
// bodyPresize, so a client that announces a large body and then sends
// little of it pins no more than that.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	// MinRead of room past the body lets the read that sees EOF land
	// without growing the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), bodyPresize)+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// bodyPresize caps the buffer a declared Content-Length reserves
// before any of the body has arrived.
const bodyPresize = 1 << 20

// decodeRequest decodes one JSON object holding only keys in fields.
func decodeRequest(body []byte, fields []string) (*request, error) {
	p := parser{b: body}
	req := new(request)
	if err := p.object(req, fields); err != nil {
		return nil, err
	}
	p.ws()
	if p.i < len(p.b) {
		return nil, p.errorf("invalid character %q after top-level value", p.b[p.i])
	}
	return req, nil
}

// parser is a cursor over a JSON body.
type parser struct {
	b []byte
	i int
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), p.i)
}

// unexpected reports the byte at the cursor, or the end of the input.
func (p *parser) unexpected(want string) error {
	if p.i >= len(p.b) {
		return p.errorf("unexpected end of JSON input, want %s", want)
	}
	return p.errorf("invalid character %q, want %s", p.b[p.i], want)
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// skip consumes c if it is the next byte.
func (p *parser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes the literal null if it comes next.
func (p *parser) null() bool {
	if bytes.HasPrefix(p.b[p.i:], []byte("null")) {
		p.i += 4
		return true
	}
	return false
}

// object decodes the top-level value: an object, or null for the zero
// request, as encoding/json leaves a struct untouched on null.
func (p *parser) object(req *request, fields []string) error {
	p.ws()
	if p.null() {
		return nil
	}
	if !p.skip('{') {
		return p.unexpected("'{'")
	}
	p.ws()
	if p.skip('}') {
		return nil
	}
	for {
		p.ws()
		key, err := p.str()
		if err != nil {
			return err
		}
		name := matchField(key, fields)
		if name == "" {
			return fmt.Errorf("json: unknown field %q", key)
		}
		p.ws()
		if !p.skip(':') {
			return p.unexpected("':' after object key")
		}
		p.ws()
		if err := p.field(req, name); err != nil {
			return err
		}
		p.ws()
		if p.skip(',') {
			continue
		}
		if p.skip('}') {
			return nil
		}
		return p.unexpected("',' or '}' after object value")
	}
}

// matchField finds the field a key names the way encoding/json does,
// case-insensitively with Unicode folding (no two field names fold
// alike, so its exact-match-first rule changes nothing). A repeated
// key simply decodes again, so the last one wins.
func matchField(key []byte, fields []string) string {
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return f
		}
	}
	return ""
}

// field decodes the value of the named field into req.
func (p *parser) field(req *request, name string) error {
	var err error
	switch name {
	case "kind":
		err = p.stringField(&req.Kind)
	case "a":
		req.A, err = p.matrix(name)
	case "d":
		req.D, err = p.matrix(name)
	case "e":
		req.E, err = p.matrix(name)
	case "index_id":
		err = p.stringField(&req.IndexID)
	case "r1":
		err = p.intField(&req.R1)
	case "r2":
		err = p.intField(&req.R2)
	case "c1":
		err = p.intField(&req.C1)
	case "c2":
		err = p.intField(&req.C2)
	case "tenant":
		err = p.stringField(&req.Tenant)
	case "priority":
		err = p.intField(&req.Priority)
	case "deadline_ms":
		err = p.intField(&req.DeadlineMS)
	}
	return err
}

// str reads a JSON string. One of printable ASCII with no escape is
// sliced straight out of the body; any other goes through
// json.Unmarshal, which unescapes it, rejects control bytes and
// replaces invalid UTF-8 exactly as the struct decoder does.
func (p *parser) str() ([]byte, error) {
	if !p.skip('"') {
		return nil, p.unexpected("string")
	}
	start := p.i
	for i := start; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			p.i = i + 1
			return p.b[start:i], nil
		case c < 0x20 || c >= 0x80 || c == '\\':
			return p.slowStr(start - 1)
		}
	}
	p.i = len(p.b)
	return nil, p.unexpected("closing '\"'")
}

// slowStr decodes the string whose opening quote is at open.
func (p *parser) slowStr(open int) ([]byte, error) {
	i := open + 1
	for i < len(p.b) && p.b[i] != '"' {
		if p.b[i] == '\\' {
			i++
		}
		i++
	}
	if i >= len(p.b) {
		p.i = len(p.b)
		return nil, p.unexpected("closing '\"'")
	}
	var s string
	if err := json.Unmarshal(p.b[open:i+1], &s); err != nil {
		return nil, err
	}
	p.i = i + 1
	return []byte(s), nil
}

// stringField decodes a string; null leaves dst as it is.
func (p *parser) stringField(dst *string) error {
	if p.null() {
		return nil
	}
	s, err := p.str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// intField decodes a JSON integer; null leaves dst as it is. A number
// with a fraction or exponent is an error, as encoding/json makes it.
func (p *parser) intField(dst *int) error {
	if p.null() {
		return nil
	}
	tok, err := p.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into Go value of type int", tok)
	}
	*dst = int(v)
	return nil
}

// number scans one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so strconv sees no
// spelling JSON forbids (hex, inf, a leading '+' or '.', underscores).
func (p *parser) number() ([]byte, error) {
	b, start := p.b, p.i
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		p.i = i
		return nil, p.unexpected("number")
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			p.i = i + 1
			return nil, p.unexpected("digit after decimal point")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			p.i = i
			return nil, p.unexpected("digit in exponent")
		}
	}
	p.i = i
	return b[start:i], nil
}

// entry decodes one matrix entry: a number, or null for +Inf.
func (p *parser) entry() (float64, error) {
	if p.null() {
		return math.Inf(1), nil
	}
	tok, err := p.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		// Grammar was checked, so only a range error reaches here.
		return 0, fmt.Errorf("json: cannot unmarshal number %s into Go value of type float64", tok)
	}
	return v, nil
}

// matrix decodes a matrix field: null, or an array of rows, each null
// (no entries) or an array of entries. The first row fixes the width;
// an empty first row makes the field empty, and a later row of another
// width makes it ragged. Both are still parsed to the end, so a
// repeated key can replace them.
func (p *parser) matrix(name string) (matrix, error) {
	if p.null() {
		return matrix{}, nil
	}
	if !p.skip('[') {
		return matrix{}, p.unexpected(fmt.Sprintf("array of rows for matrix %q", name))
	}
	p.ws()
	if p.skip(']') {
		return matrix{}, nil
	}
	data := make([]float64, 0, presize(p.b[p.i:]))
	rows, n := 0, 0
	var ragged error
	for {
		p.ws()
		k := 0
		if !p.null() {
			if !p.skip('[') {
				return matrix{}, p.unexpected(fmt.Sprintf("row array in matrix %q", name))
			}
			p.ws()
			for !p.skip(']') {
				v, err := p.entry()
				if err != nil {
					return matrix{}, err
				}
				if ragged == nil && (rows == 0 || k < n) {
					data = append(data, v)
				}
				k++
				p.ws()
				if p.skip(',') {
					p.ws()
					if p.i < len(p.b) && p.b[p.i] == ']' {
						return matrix{}, p.unexpected("matrix entry after ','")
					}
					continue
				}
				if p.i >= len(p.b) || p.b[p.i] != ']' {
					return matrix{}, p.unexpected("',' or ']' after matrix entry")
				}
			}
		}
		switch {
		case rows == 0:
			n = k
		case k != n && n > 0 && ragged == nil:
			ragged = fmt.Errorf("matrix %q is ragged: row %d has %d entries, want %d", name, rows, k, n)
			data = nil
		}
		rows++
		p.ws()
		if p.skip(',') {
			continue
		}
		if p.skip(']') {
			break
		}
		return matrix{}, p.unexpected("',' or ']' after matrix row")
	}
	switch {
	case n == 0:
		return matrix{}, nil
	case ragged != nil:
		return matrix{err: ragged}, nil
	}
	return matrix{d: marray.DenseOf(rows, n, data)}, nil
}

// presize guesses the entries of a matrix from the bytes after its
// opening '[', so that its slice is allocated once: the commas before
// the first ']' give the first row's width, and each later ',' '['
// ... ']' is one more row. It walks only from row to row, and stops at
// the ']' that closes the matrix or at anything between rows that is
// not a ',' and a row's '[' (a null row, or bytes the parse rejects),
// so on a matrix that parses it reads nothing past the matrix. The
// guess is capped at half the bytes it read, as every entry takes at
// least two, so however often a key repeats, the matrices of one body
// reserve no more entries than the body could hold. A short guess is
// made good by append as the rows arrive.
func presize(b []byte) int {
	k := bytes.IndexByte(b, ']')
	if k < 0 {
		return 0
	}
	width, rows, read := 1+bytes.Count(b[:k], []byte(",")), 1, k+1
	for {
		rest := bytes.TrimLeft(b[read:], " \t\n\r")
		if len(rest) == 0 || rest[0] != ',' {
			break
		}
		rest = bytes.TrimLeft(rest[1:], " \t\n\r")
		if len(rest) == 0 || rest[0] != '[' {
			break
		}
		if k = bytes.IndexByte(rest, ']'); k < 0 {
			break
		}
		read, rows = len(b)-len(rest)+k+1, rows+1
	}
	return min(width*rows, read/2)
}
