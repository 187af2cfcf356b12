package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/telemetry"
)

// TestResultsBinaryRoundTrip pins the binary result frame codec: every
// shape of answer (empty, single, dense) and an attached trace survive
// the round trip, a non-ascending answer refuses to encode, and a
// corrupted frame refuses to decode.
func TestResultsBinaryRoundTrip(t *testing.T) {
	rs := []QueryResponse{
		{Answer: nil, Stats: core.QueryStats{CandidatesM: 3}},
		{Answer: []int32{7}, Stats: core.QueryStats{AnswerSize: 1}},
		{Answer: []int32{0, 1, 2, 3, 4, 5}, Stats: core.QueryStats{AnswerSize: 6}},
		{Answer: []int32{5, 900, 1 << 20}, Trace: &telemetry.Trace{RequestID: "cafecafecafecafe"}},
	}
	data, err := EncodeResultsBinary(rs)
	if err != nil {
		t.Fatalf("EncodeResultsBinary: %v", err)
	}
	got, err := DecodeResultsBinary(data)
	if err != nil {
		t.Fatalf("DecodeResultsBinary: %v", err)
	}
	if len(got) != len(rs) {
		t.Fatalf("round trip returned %d results, want %d", len(got), len(rs))
	}
	for i := range rs {
		if !eq(got[i].Answer, rs[i].Answer) {
			t.Errorf("result %d answer %v != %v", i, got[i].Answer, rs[i].Answer)
		}
		if got[i].Stats != rs[i].Stats {
			t.Errorf("result %d stats %+v != %+v", i, got[i].Stats, rs[i].Stats)
		}
	}
	if got[3].Trace == nil || got[3].Trace.RequestID != "cafecafecafecafe" {
		t.Errorf("trace did not survive the round trip: %+v", got[3].Trace)
	}

	if _, err := EncodeResultsBinary([]QueryResponse{{Answer: []int32{5, 3}}}); err == nil {
		t.Error("non-ascending answer encoded without error")
	}
	if _, err := DecodeResultsBinary(data[:len(data)-1]); err == nil {
		t.Error("truncated frame decoded without error")
	}
	if _, err := DecodeResultsBinary(append(data, 0)); err == nil {
		t.Error("frame with trailing bytes decoded without error")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeResultsBinary(bad); err == nil {
		t.Error("bad magic decoded without error")
	}
}

// TestBinaryWireMatchesText drives the same workload through a text-wire
// and a binary-wire client against one live server: every answer must be
// identical across codecs and match the wrapped method's baseline, the
// health check must advertise the capability, and the codec telemetry
// must show the binary leg actually negotiated.
func TestBinaryWireMatchesText(t *testing.T) {
	ds := testDataset(40, 301)
	queries := testWorkload(ds, 16, 302)
	base := method.NewVF2Plus(ds)
	s := startServer(t, newTestCache(ds), Options{})
	text := NewClient(s.Addr())
	bin := NewClientWith(s.Addr(), ClientOptions{WireBinary: true})
	ctx := context.Background()

	if !bin.BinaryWire() {
		t.Fatal("WireBinary option did not stick")
	}
	_, binary, err := bin.HealthzWire(ctx)
	if err != nil {
		t.Fatalf("HealthzWire: %v", err)
	}
	if !binary {
		t.Error("healthz does not advertise the binary wire capability")
	}

	for i, q := range queries[:8] {
		tr, err := text.Query(ctx, q)
		if err != nil {
			t.Fatalf("text Query %d: %v", i, err)
		}
		br, err := bin.Query(ctx, q)
		if err != nil {
			t.Fatalf("binary Query %d: %v", i, err)
		}
		if !eq(tr.Answer, br.Answer) {
			t.Fatalf("query %d: text answer %v != binary answer %v", i, tr.Answer, br.Answer)
		}
		if want := method.Answer(base, q); !eq(br.Answer, want) {
			t.Fatalf("query %d: binary answer %v != local %v", i, br.Answer, want)
		}
	}
	tb, err := text.QueryBatch(ctx, queries[8:])
	if err != nil {
		t.Fatalf("text QueryBatch: %v", err)
	}
	bb, err := bin.QueryBatch(ctx, queries[8:])
	if err != nil {
		t.Fatalf("binary QueryBatch: %v", err)
	}
	for i := range tb {
		if !eq(tb[i].Answer, bb[i].Answer) {
			t.Fatalf("batched query %d: text answer %v != binary answer %v", i, tb[i].Answer, bb[i].Answer)
		}
	}

	samples := scrapeMetrics(t, s.Addr())
	for _, check := range []struct {
		name   string
		labels map[string]string
	}{
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "request"}},
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "response"}},
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "text", "direction": "request"}},
		{"graphcache_codec_bytes_total", map[string]string{"codec": "binary", "direction": "in"}},
		{"graphcache_codec_bytes_total", map[string]string{"codec": "binary", "direction": "out"}},
		{"graphcache_server_codec_seconds_count", map[string]string{"op": "decode", "codec": "binary"}},
		{"graphcache_server_codec_seconds_count", map[string]string{"op": "encode", "codec": "binary"}},
	} {
		if v, ok := metricValue(samples, check.name, check.labels); !ok || v == 0 {
			t.Errorf("%s%v = %v, %v; want populated", check.name, check.labels, v, ok)
		}
	}
}

// TestStreamedBatch exercises POST /querybatch's NDJSON mode through the
// client in both delivery orders: the ordered stream yields indices
// 0..n-1 in request order, the arrival stream yields every index exactly
// once, and both carry answers identical to the buffered batch.
func TestStreamedBatch(t *testing.T) {
	ds := testDataset(40, 311)
	queries := testWorkload(ds, 24, 312)
	s := startServer(t, newTestCache(ds), Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	want, err := cl.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}

	var ordered []StreamResult
	if err := cl.QueryBatchStream(ctx, queries, false, func(sr StreamResult) error {
		ordered = append(ordered, sr)
		return nil
	}); err != nil {
		t.Fatalf("ordered QueryBatchStream: %v", err)
	}
	if len(ordered) != len(queries) {
		t.Fatalf("ordered stream delivered %d results, want %d", len(ordered), len(queries))
	}
	for i, sr := range ordered {
		if sr.Index != i {
			t.Fatalf("ordered stream result %d has index %d", i, sr.Index)
		}
		if !eq(sr.Answer, want[i].Answer) {
			t.Fatalf("ordered stream query %d: answer %v != buffered %v", i, sr.Answer, want[i].Answer)
		}
	}

	seen := make(map[int]bool)
	if err := cl.QueryBatchStream(ctx, queries, true, func(sr StreamResult) error {
		if seen[sr.Index] {
			return fmt.Errorf("index %d delivered twice", sr.Index)
		}
		seen[sr.Index] = true
		if sr.Index < 0 || sr.Index >= len(queries) {
			return fmt.Errorf("index %d out of range", sr.Index)
		}
		if !eq(sr.Answer, want[sr.Index].Answer) {
			return fmt.Errorf("arrival stream query %d: answer %v != buffered %v", sr.Index, sr.Answer, want[sr.Index].Answer)
		}
		return nil
	}); err != nil {
		t.Fatalf("arrival QueryBatchStream: %v", err)
	}
	if len(seen) != len(queries) {
		t.Fatalf("arrival stream delivered %d distinct results, want %d", len(seen), len(queries))
	}

	// A binary-wire client streams too: the request body format and the
	// response streaming mode negotiate independently.
	bin := NewClientWith(s.Addr(), ClientOptions{WireBinary: true})
	n := 0
	if err := bin.QueryBatchStream(ctx, queries, false, func(sr StreamResult) error {
		if !eq(sr.Answer, want[n].Answer) {
			return fmt.Errorf("binary stream query %d: answer %v != buffered %v", n, sr.Answer, want[n].Answer)
		}
		n++
		return nil
	}); err != nil {
		t.Fatalf("binary-request QueryBatchStream: %v", err)
	}
	if n != len(queries) {
		t.Fatalf("binary-request stream delivered %d results, want %d", n, len(queries))
	}
}

// slowVerifyMethod delays every verification so a streamed batch is
// still mid-verify when the test cancels it. Wrapping hides the optional
// interfaces, which is fine here: the per-pair dispatch path is the one
// under test.
type slowVerifyMethod struct {
	method.Method
	delay time.Duration
}

func (m *slowVerifyMethod) Verify(q *graph.Graph, id int32) bool {
	time.Sleep(m.delay)
	return m.Method.Verify(q, id)
}

// TestStreamCancellationAbandonsBatch kills a client mid-batch — a
// streaming one after its first result, a buffered one while it waits —
// and asserts the contract the CI wire drill greps for: the server
// notices the disconnect through the request context, abandons the rest
// of the batch, and counts the cancellation on /metrics.
func TestStreamCancellationAbandonsBatch(t *testing.T) {
	stop := errors.New("client walks away")
	for name, walkAway := range map[string]func(cl *Client, queries []*graph.Graph) error{
		"streamed": func(cl *Client, queries []*graph.Graph) error {
			return cl.QueryBatchStream(context.Background(), queries, false, func(StreamResult) error {
				return stop
			})
		},
		"buffered": func(cl *Client, queries []*graph.Graph) error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := cl.QueryBatch(ctx, queries)
			if errors.Is(err, context.DeadlineExceeded) {
				return stop
			}
			return err
		},
	} {
		ds := testDataset(40, 321)
		queries := testWorkload(ds, 32, 322)
		slow := &slowVerifyMethod{Method: ggsx.New(ds, ggsx.Options{}), delay: 3 * time.Millisecond}
		c := core.New(slow, core.Options{CacheSize: 20, WindowSize: 5})
		s := startServer(t, c, Options{})

		if err := walkAway(NewClient(s.Addr()), queries); !errors.Is(err, stop) {
			t.Fatalf("%s batch: error = %v; want the client's own departure", name, err)
		}

		deadline := time.Now().Add(10 * time.Second)
		for {
			samples := scrapeMetrics(t, s.Addr())
			v, ok := metricValue(samples, "graphcache_server_stream_cancelled_total", nil)
			if ok && v >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s batch: stream_cancelled_total = %v, %v; want >= 1 after client disconnect", name, v, ok)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
