package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/telemetry"
)

// awkward are strings that exercise every branch of JSON string quoting:
// HTML characters, control characters, quotes and backslashes, invalid
// UTF-8, multi-byte runes and the two JavaScript line separators.
var awkward = []string{
	"", "plain", "<script>&amp;</script>", "\x00\x01\x1f\b\f\n\r\t\x7f",
	`"quoted" \back\slash/`, "\xff\xfe bad \xc3", "é 日本 \U0001F600", "\u2028 and \u2029",
}

func randomString(r *rand.Rand, validUTF8 bool) string {
	if r.Intn(3) > 0 {
		s := awkward[r.Intn(len(awkward))]
		if validUTF8 {
			s = strings.ToValidUTF8(s, "?")
		}
		return s
	}
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	if validUTF8 {
		return strings.ToValidUTF8(string(b), "?")
	}
	return string(b)
}

func randomInt(r *rand.Rand) int64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -r.Int63n(1000)
	default:
		return r.Int63()
	}
}

func randomAnswer(r *rand.Rand) []int32 {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int32{}
	}
	a := make([]int32, 1+r.Intn(20))
	for i := range a {
		switch r.Intn(8) {
		case 0:
			a[i] = math.MinInt32
		case 1:
			a[i] = math.MaxInt32
		default:
			a[i] = r.Int31n(5000) - 10
		}
	}
	return a
}

// inProcess reports whether QueryStats field i stays in the process: it
// is tagged json:"-", so no reply carries it.
func inProcess(v reflect.Value, i int) bool { return v.Type().Field(i).Tag.Get("json") == "-" }

// randomStats fills every wire field of core.QueryStats — negative
// durations and integer extremes included — whatever fields it has, so a
// field added later is covered (or fails the test until the codec learns
// it). The in-process fields stay zero: they never round-trip.
func randomStats(t testing.TB, r *rand.Rand) core.QueryStats {
	var s core.QueryStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if inProcess(v, i) {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(randomInt(r))
		case reflect.Bool:
			f.SetBool(r.Intn(2) == 0)
		default:
			t.Fatalf("QueryStats.%s is a %s: teach the result codec", v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
}

func randomTrace(r *rand.Rand, validUTF8 bool) *telemetry.Trace {
	if r.Intn(3) > 0 {
		return nil
	}
	tr := &telemetry.Trace{RequestID: randomString(r, validUTF8)}
	switch n := r.Intn(4); n {
	case 0:
	case 1:
		tr.Spans = []telemetry.Span{}
	default:
		for i := 0; i < n; i++ {
			tr.Spans = append(tr.Spans, telemetry.Span{Name: randomString(r, validUTF8), DurNS: randomInt(r)})
		}
	}
	return tr
}

func randomQueryResponse(t testing.TB, r *rand.Rand, validUTF8 bool) QueryResponse {
	return QueryResponse{Answer: randomAnswer(r), Stats: randomStats(t, r), Trace: randomTrace(r, validUTF8)}
}

func randomBatch(t testing.TB, r *rand.Rand, validUTF8 bool) BatchResponse {
	if r.Intn(8) == 0 {
		return BatchResponse{}
	}
	b := BatchResponse{Results: make([]QueryResponse, r.Intn(6))}
	for i := range b.Results {
		b.Results[i] = randomQueryResponse(t, r, validUTF8)
	}
	return b
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResultEncodersMatchEncodingJSON is the wire contract: over random
// results — nil and empty answers, negative durations, integer extremes,
// every combination of the two flags, traces, awkward strings — each
// encoder appends exactly json.Marshal's bytes.
func TestResultEncodersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		qr := randomQueryResponse(t, r, false)
		qr.Stats.ExactHit, qr.Stats.EmptyShortcut = i&1 == 0, i&2 == 0
		if got, want := appendQueryResponse(nil, &qr), mustMarshal(t, qr); !bytes.Equal(got, want) {
			t.Fatalf("QueryResponse %+v:\n got %s\nwant %s", qr, got, want)
		}
		br := randomBatch(t, r, false)
		if got, want := appendBatchResponse(nil, br.Results), mustMarshal(t, br); !bytes.Equal(got, want) {
			t.Fatalf("BatchResponse %+v:\n got %s\nwant %s", br, got, want)
		}
	}
}

// TestRepliesOmitInProcessStats: a reply's bytes do not depend on the
// QueryStats fields tagged json:"-" — whatever they hold, the hand-coded
// encoders and encoding/json write exactly what they write when they are
// zero.
func TestRepliesOmitInProcessStats(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		qr := randomQueryResponse(t, r, false)
		wantQR := appendQueryResponse(nil, &qr)
		v := reflect.ValueOf(&qr.Stats).Elem()
		for k := 0; k < v.NumField(); k++ {
			if !inProcess(v, k) {
				continue
			}
			switch f := v.Field(k); f.Kind() {
			case reflect.Int64:
				f.SetInt(1 + r.Int63())
			case reflect.Float64:
				f.SetFloat(1 + r.Float64())
			default:
				t.Fatalf("QueryStats.%s is a %s: teach this test", v.Type().Field(k).Name, f.Kind())
			}
		}
		if got := appendQueryResponse(nil, &qr); !bytes.Equal(got, wantQR) {
			t.Fatalf("QueryResponse bytes changed with the in-process fields:\n got %s\nwant %s", got, wantQR)
		}
		if got := mustMarshal(t, qr); !bytes.Equal(got, wantQR) {
			t.Fatalf("encoding/json writes the in-process fields:\n got %s\nwant %s", got, wantQR)
		}
	}
}

// TestResultCodecRoundTrip: decoding an encoding gives back the value, nil
// and empty answers, span lists and traces kept apart. (Strings are valid
// UTF-8: invalid bytes are coerced to U+FFFD on the way out, by design.)
func TestResultCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		qr := randomQueryResponse(t, r, true)
		var qr2 QueryResponse
		if err := decodeQueryResponse(appendQueryResponse(nil, &qr), &qr2); err != nil || !reflect.DeepEqual(qr, qr2) {
			t.Fatalf("QueryResponse round trip: %v\n  in %+v\n out %+v", err, qr, qr2)
		}
		br := randomBatch(t, r, true)
		var br2 BatchResponse
		if err := decodeBatchResponse(appendBatchResponse(nil, br.Results), &br2); err != nil || !reflect.DeepEqual(br, br2) {
			t.Fatalf("BatchResponse round trip: %v\n  in %+v\n out %+v", err, br, br2)
		}
	}
}

// TestResultDecoderRejectsMalformed: truncations, bad literals, bad
// numbers, out-of-range integers, wrong value types and trailing data are
// errors, never a partial success.
func TestResultDecoderRejectsMalformed(t *testing.T) {
	good := string(appendQueryResponse(nil, &QueryResponse{Answer: []int32{1, 2}}))
	for i := 0; i < len(good); i++ {
		var v QueryResponse
		if decodeQueryResponse([]byte(good[:i]), &v) == nil {
			t.Errorf("truncated at %d: %q decoded", i, good[:i])
		}
	}
	for _, in := range []string{
		``, `nul`, `[]`, `"x"`, `{"answer":[1,]}`, `{"answer":[01]}`, `{"answer":[1.0]}`,
		`{"answer":[2147483648]}`, `{"answer":[-2147483649]}`, `{"stats":{"Serial":9223372036854775808}}`,
		`{"stats":{"ExactHit":1}}`, `{"stats":[]}`, `{"answer":{}}`, `{"trace":5}`, `{"x":tru}`,
		`{"x":"\q"}`, `{"x":"` + "\x01" + `"}`, `{"x":-}`, `{"x":1e}`, `{} {}`, `{"answer":null,}`,
		`{"x":"\ud800\u12"}`, `{"answer" 1}`, `{1:2}`,
	} {
		var v QueryResponse
		if err := decodeQueryResponse([]byte(in), &v); err == nil {
			t.Errorf("%q decoded", in)
		}
		if json.Unmarshal([]byte(in), &v) == nil {
			t.Errorf("%q: encoding/json accepts it; the case is mislabelled", in)
		}
	}
	var b BatchResponse
	if decodeBatchResponse([]byte(`{"results":[{"answer":[1]},]}`), &b) == nil {
		t.Error("a trailing comma in results decoded")
	}
}

// TestResultDecoderToleratesNewerServers: an older client must read a
// newer server's reply — extra keys anywhere, any key order, any white
// space, escaped key names.
func TestResultDecoderToleratesNewerServers(t *testing.T) {
	in := ` { "future" : {"nested":[1,{"a":null}],"s":"\u00e9"} ,
	"stats":{"AnswerSize":2,"NewCounter":17.5,"Serial":9},
	"\u0061nswer" : [ 3 , 4 ] , "trace":null }` + "\n"
	var got QueryResponse
	if err := decodeQueryResponse([]byte(in), &got); err != nil {
		t.Fatal(err)
	}
	want := QueryResponse{Answer: []int32{3, 4}, Stats: core.QueryStats{AnswerSize: 2, Serial: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestWireRepliesMatchEncodingJSON: the /query and /querybatch reply
// bodies the Wire writes for a fixed set of results are the bytes
// json.Encoder wrote for them — the reply format is unchanged.
func TestWireRepliesMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rs := make([]QueryResponse, 7)
	for i := range rs {
		rs[i] = randomQueryResponse(t, r, false)
	}
	wr := NewWire(telemetry.NewRegistry(), "graphcache_test", 1<<20)
	encoded := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	rec := httptest.NewRecorder()
	wr.WriteResults(rec, rs[:1], true)
	if got, want := rec.Body.String(), encoded(rs[0]); got != want {
		t.Errorf("/query reply:\n got %s\nwant %s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != contentTypeJSON {
		t.Errorf("/query Content-Type %q", ct)
	}
	rec = httptest.NewRecorder()
	wr.WriteResults(rec, rs, false)
	if got, want := rec.Body.String(), encoded(BatchResponse{Results: rs}); got != want {
		t.Errorf("/querybatch reply:\n got %s\nwant %s", got, want)
	}

}

// resultKeys are the member names the result types and their nested
// values use.
var resultKeys = []string{
	"answer", "stats", "trace", "results", "request_id", "spans", "name", "dur_ns",
	"Serial", "FilterMTime", "FilterGCTime", "VerifyTime", "CandidatesM", "CandidatesFinal",
	"SubIsoTests", "GCVerifications", "DirectAnswers", "Containers", "Containees", "ExactHit",
	"EmptyShortcut", "AnswerSize",
}

// canonicalKeys reports whether every member name in the JSON value v is
// either one of resultKeys exactly or folds to none of them — the inputs
// on which matching only canonical spellings cannot differ from
// encoding/json's case-insensitive matching.
func canonicalKeys(v any) bool {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			for _, name := range resultKeys {
				if k != name && strings.EqualFold(k, name) {
					return false
				}
			}
			if !canonicalKeys(e) {
				return false
			}
		}
	case []any:
		for _, e := range v {
			if !canonicalKeys(e) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeResults feeds arbitrary bytes to the two decoders: none may
// panic, whatever one accepts must be valid JSON, and on inputs with
// canonical member names each must agree with encoding/json — both reject,
// or both accept with equal values.
func FuzzDecodeResults(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 12; i++ {
		qr := randomQueryResponse(f, r, false)
		f.Add(appendQueryResponse(nil, &qr))
		br := randomBatch(f, r, false)
		f.Add(appendBatchResponse(nil, br.Results))
	}
	for _, s := range []string{
		`null`, ` {} `, `{"answer":[1,null,2],"answer":[null]}`, `{"stats":{"Serial":1},"stats":{"AnswerSize":2}}`,
		`{"results":[{"answer":[1]},null,{}]}`, `{"trace":{"request_id":"a"},"trace":{"spans":[]}}`,
		`{"error":"\ud83d\ude00\ud800x\u00e9"}`, `{"index":-0,"answer":[]}`, `{"Answer":[1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var generic any
		canonical := json.Unmarshal(data, &generic) != nil || canonicalKeys(generic)
		check := func(name string, err error, got any, decodeJSON func() (any, error)) {
			if err == nil && !json.Valid(data) {
				t.Fatalf("%s accepted invalid JSON %q", name, data)
			}
			if !canonical {
				return
			}
			want, jerr := decodeJSON()
			if (err == nil) != (jerr == nil) {
				t.Fatalf("%s on %q: error %v, encoding/json %v", name, data, err, jerr)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %q:\n got %+v\nwant %+v", name, data, got, want)
			}
		}
		var qr QueryResponse
		check("QueryResponse", decodeQueryResponse(data, &qr), qr, func() (any, error) {
			var v QueryResponse
			err := json.Unmarshal(data, &v)
			return v, err
		})
		var br BatchResponse
		check("BatchResponse", decodeBatchResponse(data, &br), br, func() (any, error) {
			var v BatchResponse
			err := json.Unmarshal(data, &v)
			return v, err
		})
	})
}

// BenchmarkResultCodec codes one 32-result batch by hand and, for
// reference, through encoding/json.
func BenchmarkResultCodec(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	rs := make([]QueryResponse, 32)
	for i := range rs {
		rs[i] = QueryResponse{Answer: randomAnswer(r), Stats: randomStats(b, r)}
	}
	data := appendBatchResponse(nil, rs)
	b.Run("encode", func(b *testing.B) {
		buf := data[:0]
		for b.Loop() {
			buf = appendBatchResponse(buf[:0], rs)
		}
	})
	b.Run("encode-json", func(b *testing.B) {
		for b.Loop() {
			json.Marshal(BatchResponse{Results: rs})
		}
	})
	b.Run("decode", func(b *testing.B) {
		for b.Loop() {
			v := BatchResponse{Results: make([]QueryResponse, 0, len(rs))}
			if err := decodeBatchResponse(data, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-json", func(b *testing.B) {
		for b.Loop() {
			var v BatchResponse
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
