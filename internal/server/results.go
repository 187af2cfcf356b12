package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"graphcache/internal/core"
	"graphcache/internal/telemetry"
)

// The result envelopes — QueryResponse and BatchResponse — are most of
// the bytes every query reply carries, and a router decodes each backend
// reply only to encode it again. They are coded by hand, without
// reflection. The encoders append exactly the bytes json.Marshal produces
// (json.Encoder adds the trailing newline); the decoder reads a whole
// body with encoding/json's semantics — any key order and white space,
// unknown keys skipped, integers range-checked, null leaving a scalar or
// struct untouched and clearing a slice or pointer, a repeated key
// merging into what the first one decoded — and rejects what json.Valid
// rejects. Keys match only in their canonical spelling (no case folding;
// they may be escaped). What is rare and holds arbitrary text — the
// trace, an escaped string — is handed to encoding/json whole, so string
// quoting is encoding/json's own. Tests pin both directions against
// encoding/json.

// appendQueryResponse appends the JSON encoding of r to dst.
func appendQueryResponse(dst []byte, r *QueryResponse) []byte {
	dst = append(dst, `{"answer":`...)
	dst = appendIDs(dst, r.Answer)
	dst = append(dst, `,"stats":`...)
	dst = appendStats(dst, &r.Stats)
	if r.Trace != nil {
		dst = append(dst, `,"trace":`...)
		dst = appendJSON(dst, r.Trace)
	}
	return append(dst, '}')
}

// appendBatchResponse appends the JSON encoding of BatchResponse{rs}.
func appendBatchResponse(dst []byte, rs []QueryResponse) []byte {
	dst = append(dst, `{"results":`...)
	if rs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range rs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendQueryResponse(dst, &rs[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendIDs(dst []byte, ids []int32) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return append(dst, ']')
}

// appendStats encodes core.QueryStats, whose fields carry no tags: its
// keys are the field names, in declaration order.
func appendStats(dst []byte, s *core.QueryStats) []byte {
	dst = append(dst, `{"Serial":`...)
	dst = strconv.AppendInt(dst, s.Serial, 10)
	dst = append(dst, `,"FilterMTime":`...)
	dst = strconv.AppendInt(dst, int64(s.FilterMTime), 10)
	dst = append(dst, `,"FilterGCTime":`...)
	dst = strconv.AppendInt(dst, int64(s.FilterGCTime), 10)
	dst = append(dst, `,"VerifyTime":`...)
	dst = strconv.AppendInt(dst, int64(s.VerifyTime), 10)
	dst = append(dst, `,"CandidatesM":`...)
	dst = strconv.AppendInt(dst, int64(s.CandidatesM), 10)
	dst = append(dst, `,"CandidatesFinal":`...)
	dst = strconv.AppendInt(dst, int64(s.CandidatesFinal), 10)
	dst = append(dst, `,"SubIsoTests":`...)
	dst = strconv.AppendInt(dst, int64(s.SubIsoTests), 10)
	dst = append(dst, `,"GCVerifications":`...)
	dst = strconv.AppendInt(dst, int64(s.GCVerifications), 10)
	dst = append(dst, `,"DirectAnswers":`...)
	dst = strconv.AppendInt(dst, int64(s.DirectAnswers), 10)
	dst = append(dst, `,"Containers":`...)
	dst = strconv.AppendInt(dst, int64(s.Containers), 10)
	dst = append(dst, `,"Containees":`...)
	dst = strconv.AppendInt(dst, int64(s.Containees), 10)
	dst = append(dst, `,"ExactHit":`...)
	dst = strconv.AppendBool(dst, s.ExactHit)
	dst = append(dst, `,"EmptyShortcut":`...)
	dst = strconv.AppendBool(dst, s.EmptyShortcut)
	dst = append(dst, `,"AnswerSize":`...)
	dst = strconv.AppendInt(dst, int64(s.AnswerSize), 10)
	return append(dst, '}')
}

// appendJSON appends v as json.Marshal encodes it.
func appendJSON(dst []byte, v any) []byte {
	b, _ := json.Marshal(v) // a string or a *telemetry.Trace: cannot fail
	return append(dst, b...)
}

// decodeQueryResponse decodes one JSON QueryResponse, the whole of data,
// into v.
func decodeQueryResponse(data []byte, v *QueryResponse) error {
	d := decoder{data: data}
	return d.whole(d.queryResponse(v))
}

// decodeBatchResponse decodes one JSON BatchResponse, the whole of data,
// into v. Results decode into v.Results' backing array while it has room,
// so a caller that knows the batch size allocates the slice once.
func decodeBatchResponse(data []byte, v *BatchResponse) error {
	d := decoder{data: data}
	return d.whole(d.batchResponse(v))
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decoder reads JSON from data at off. depth counts the arrays and objects
// open around off.
type decoder struct {
	data  []byte
	off   int
	depth int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("decoding results at offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// whole finishes a top-level decode: only white space may follow the value.
func (d *decoder) whole(err error) error {
	if err != nil {
		return err
	}
	if d.ws(); d.off < len(d.data) {
		return d.errorf("%q after the value", d.data[d.off])
	}
	return nil
}

// ws skips JSON white space.
func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	if d.ws(); d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		d.off += 4
		return true
	}
	return false
}

// open consumes the opening bracket c of an array or object.
func (d *decoder) open(c byte) error {
	if got := d.peek(); got != c {
		return d.errorf("want %q, found %q", c, got)
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("nested too deeply")
	}
	d.off++
	return nil
}

// next moves to the next element of an array, or member of an object,
// whose opening bracket has been consumed and whose closing one is end. It
// reports false — having consumed end — when there is none. first tells
// whether a separating comma must come first.
func (d *decoder) next(end byte, first bool) (bool, error) {
	c := d.peek()
	if c == end {
		d.off++
		d.depth--
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.errorf("want ',' or %q, found %q", end, c)
		}
		d.off++
	}
	return true, nil
}

// key reads a member name and the colon after it. An escaped name is
// unescaped; otherwise the returned slice aliases data.
func (d *decoder) key() ([]byte, error) {
	if c := d.peek(); c != '"' {
		return nil, d.errorf("want a member name, found %q", c)
	}
	tok, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	key := tok[1 : len(tok)-1]
	if !plain {
		var s string
		json.Unmarshal(tok, &s) // str validated tok
		key = []byte(s)
	}
	if c := d.peek(); c != ':' {
		return nil, d.errorf("want ':', found %q", c)
	}
	d.off++
	return key, nil
}

// str consumes a string at off, validating it, and returns it as it
// stands in data, quotes included. plain means its value is the bytes
// between the quotes: no escape, valid UTF-8.
func (d *decoder) str() (tok []byte, plain bool, err error) {
	plain, ascii := true, true
	for i := d.off + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			tok = d.data[d.off : i+1]
			d.off = i + 1
			return tok, plain && (ascii || utf8.Valid(tok)), nil
		case c == '\\':
			plain = false
			n := 1 // bytes after the backslash
			if i+1 < len(d.data) && d.data[i+1] == 'u' {
				n = 5
			}
			if i+n >= len(d.data) || !validEscape(d.data[i+1:i+n+1]) {
				d.off = i
				return nil, false, d.errorf("bad escape")
			}
			i += n
		case c < ' ':
			d.off = i
			return nil, false, d.errorf("control character %q in a string", c)
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.off = len(d.data)
	return nil, false, d.errorf("unterminated string")
}

// validEscape reports whether e, what follows a backslash, is one JSON
// allows: one of "\/bfnrt, or u and four hex digits.
func validEscape(e []byte) bool {
	if e[0] != 'u' {
		return len(e) == 1 && strings.IndexByte(`"\/bfnrt`, e[0]) >= 0
	}
	for _, c := range e[1:] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// integer reads an integer literal of at most bits bits into *p; null
// leaves it. A number with a fraction or an exponent is an error, as it
// is for encoding/json decoding into an integer.
func integer[T ~int | ~int32 | ~int64](d *decoder, p *T, bits uint) error {
	if d.null() {
		return nil
	}
	if d.off == len(d.data) {
		return d.errorf("want an integer, found the end")
	}
	neg := d.data[d.off] == '-'
	i := d.off
	if neg {
		i++
	}
	var u uint64
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case i < len(d.data) && '1' <= d.data[i] && d.data[i] <= '9':
		for ; i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
			if u > (1<<63)/10 {
				return d.errorf("integer overflows int%d", bits)
			}
			u = u*10 + uint64(d.data[i]-'0')
		}
	default:
		return d.errorf("want an integer, found %q", d.data[d.off])
	}
	if i < len(d.data) {
		switch c := d.data[i]; {
		case c == '.' || c == 'e' || c == 'E':
			return d.errorf("want an integer, found a fraction or an exponent")
		case '0' <= c && c <= '9':
			return d.errorf("leading zero")
		}
	}
	if limit := uint64(1) << (bits - 1); u > limit || u == limit && !neg {
		return d.errorf("integer overflows int%d", bits)
	}
	d.off = i
	if neg {
		*p = T(-int64(u))
	} else {
		*p = T(u)
	}
	return nil
}

// boolean reads true or false into *p; null leaves it.
func (d *decoder) boolean(p *bool) error {
	switch {
	case d.null():
	case bytes.HasPrefix(d.data[d.off:], []byte("true")):
		*p = true
		d.off += 4
	case bytes.HasPrefix(d.data[d.off:], []byte("false")):
		*p = false
		d.off += 5
	default:
		return d.errorf("want a boolean")
	}
	return nil
}

// enter consumes the opening c of an array or object, reporting false
// for null, which has none.
func (d *decoder) enter(c byte) (bool, error) {
	if d.null() {
		return false, nil
	}
	return true, d.open(c)
}

// member reads the next member name of the object being decoded, and the
// colon after it; ok is false at the closing brace and on error.
func (d *decoder) member(first bool) (key []byte, ok bool, err error) {
	if more, err := d.next('}', first); !more || err != nil {
		return nil, false, err
	}
	key, err = d.key()
	return key, err == nil, err
}

// skip consumes any one value, validating it.
func (d *decoder) skip() error {
	c := d.peek()
	switch {
	case c == '{':
		if err := d.open('{'); err != nil {
			return err
		}
		for first := true; ; first = false {
			if _, ok, err := d.member(first); !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		for first := true; ; first = false {
			if more, err := d.next(']', first); !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 'n':
		if !d.null() {
			return d.errorf("bad literal")
		}
		return nil
	case c == 't' || c == 'f':
		var b bool
		return d.boolean(&b)
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.errorf("want a value, found %q", c)
}

// number consumes a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	i := d.off
	digits := func() bool {
		start := i
		for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	if i < len(d.data) && d.data[i] == '0' {
		i++
	} else if !digits() {
		return d.errorf("bad number")
	}
	if i < len(d.data) && d.data[i] == '.' {
		i++
		if !digits() {
			return d.errorf("bad number")
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return d.errorf("bad number")
		}
	}
	d.off = i
	return nil
}

// ids decodes an array of int32 into *p the way encoding/json decodes into
// a slice: null clears it and [] makes it empty (and new); otherwise the
// elements overwrite the slice's own (a null element leaves one as it
// was) and fill its backing array while it has room. A new backing array
// is sized by the commas before the next ']'.
func (d *decoder) ids(p *[]int32) error {
	in, err := d.enter('[')
	if !in {
		*p = nil // null
	}
	if !in || err != nil {
		return err
	}
	s, n := *p, 0
	for ; ; n++ {
		if more, err := d.next(']', n == 0); err != nil {
			return err
		} else if !more {
			break
		}
		if n == cap(s) {
			end := max(bytes.IndexByte(d.data[d.off:], ']'), 0)
			s = slices.Grow(s, 1+bytes.Count(d.data[d.off:d.off+end], []byte{','}))
		}
		s = s[:max(len(s), n+1)]
		if err := integer(d, &s[n], 32); err != nil {
			return err
		}
	}
	if n == 0 {
		s = []int32{}
	}
	*p = s[:n]
	return nil
}

// queryResponse decodes one QueryResponse object into v; null leaves it.
func (d *decoder) queryResponse(v *QueryResponse) error {
	if in, err := d.enter('{'); !in || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok {
			return err
		}
		switch string(key) {
		case "answer":
			err = d.ids(&v.Answer)
		case "stats":
			err = d.stats(&v.Stats)
		case "trace":
			err = d.trace(&v.Trace)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// batchResponse decodes one BatchResponse object into v; null leaves it.
func (d *decoder) batchResponse(v *BatchResponse) error {
	if in, err := d.enter('{'); !in || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok {
			return err
		}
		if string(key) == "results" {
			err = d.results(&v.Results)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// results decodes an array of QueryResponse into *p by the slice rules of
// ids; a full backing array grows by amortised doubling.
func (d *decoder) results(p *[]QueryResponse) error {
	in, err := d.enter('[')
	if !in {
		*p = nil // null
	}
	if !in || err != nil {
		return err
	}
	s, n := *p, 0
	for ; ; n++ {
		if more, err := d.next(']', n == 0); err != nil {
			return err
		} else if !more {
			break
		}
		if n == cap(s) {
			s = slices.Grow(s, 1)
		}
		s = s[:max(len(s), n+1)]
		if err := d.queryResponse(&s[n]); err != nil {
			return err
		}
	}
	if n == 0 {
		s = []QueryResponse{}
	}
	*p = s[:n]
	return nil
}

// stats decodes a core.QueryStats object into s; null leaves it.
func (d *decoder) stats(s *core.QueryStats) error {
	if in, err := d.enter('{'); !in || err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if !ok {
			return err
		}
		switch string(key) {
		case "Serial":
			err = integer(d, &s.Serial, 64)
		case "FilterMTime":
			err = integer(d, &s.FilterMTime, 64)
		case "FilterGCTime":
			err = integer(d, &s.FilterGCTime, 64)
		case "VerifyTime":
			err = integer(d, &s.VerifyTime, 64)
		case "CandidatesM":
			err = integer(d, &s.CandidatesM, strconv.IntSize)
		case "CandidatesFinal":
			err = integer(d, &s.CandidatesFinal, strconv.IntSize)
		case "SubIsoTests":
			err = integer(d, &s.SubIsoTests, strconv.IntSize)
		case "GCVerifications":
			err = integer(d, &s.GCVerifications, strconv.IntSize)
		case "DirectAnswers":
			err = integer(d, &s.DirectAnswers, strconv.IntSize)
		case "Containers":
			err = integer(d, &s.Containers, strconv.IntSize)
		case "Containees":
			err = integer(d, &s.Containees, strconv.IntSize)
		case "ExactHit":
			err = d.boolean(&s.ExactHit)
		case "EmptyShortcut":
			err = d.boolean(&s.EmptyShortcut)
		case "AnswerSize":
			err = integer(d, &s.AnswerSize, strconv.IntSize)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// trace validates the trace value and hands its raw bytes to
// encoding/json: null clears *p, an object decodes into *p (allocated if
// nil).
func (d *decoder) trace(p **telemetry.Trace) error {
	if d.null() {
		*p = nil
		return nil
	}
	start := d.off
	if err := d.skip(); err != nil {
		return err
	}
	if *p == nil {
		*p = new(telemetry.Trace)
	}
	if err := json.Unmarshal(d.data[start:d.off], *p); err != nil {
		return fmt.Errorf("decoding results: trace: %w", err)
	}
	return nil
}
