package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// answersVia runs queries through one endpoint of cl — singles or one
// batch — and returns the answers in request order.
func answersVia(ctx context.Context, cl *Client, endpoint string, queries []*graph.Graph) ([][]int32, error) {
	out := make([][]int32, 0, len(queries))
	switch endpoint {
	case "/query":
		for _, q := range queries {
			r, err := cl.Query(ctx, q)
			if err != nil {
				return nil, err
			}
			out = append(out, r.Answer)
		}
	case "/querybatch":
		rs, err := cl.QueryBatch(ctx, queries)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			out = append(out, r.Answer)
		}
	}
	return out, nil
}

// TestBinaryWireMatchesText drives the same workload through a text-wire
// and a binary-wire client against one live server, over every query
// endpoint: a binary request and a text request get the same JSON reply
// — every answer identical and equal to the wrapped
// method's baseline. A request still asking for the deleted binary
// result format gets the JSON reply, not a 406, and the telemetry shows
// binary negotiated for requests and never for replies.
func TestBinaryWireMatchesText(t *testing.T) {
	ds := testDataset(40, 301)
	queries := testWorkload(ds, 16, 302)
	base := method.NewVF2Plus(ds)
	s := startServer(t, newTestCache(ds), Options{})
	text := NewClient(s.Addr())
	bin := NewClientWith(s.Addr(), ClientOptions{WireBinary: true})
	ctx := context.Background()

	for _, endpoint := range []string{"/query", "/querybatch"} {
		ta, err := answersVia(ctx, text, endpoint, queries)
		if err != nil {
			t.Fatalf("%s, text request: %v", endpoint, err)
		}
		ba, err := answersVia(ctx, bin, endpoint, queries)
		if err != nil {
			t.Fatalf("%s, binary request: %v", endpoint, err)
		}
		if len(ta) != len(queries) || len(ba) != len(queries) {
			t.Fatalf("%s: %d text and %d binary answers for %d queries", endpoint, len(ta), len(ba), len(queries))
		}
		for i, q := range queries {
			if !eq(ta[i], ba[i]) {
				t.Fatalf("%s query %d: text answer %v != binary answer %v", endpoint, i, ta[i], ba[i])
			}
			if want := method.Answer(base, q); !eq(ba[i], want) {
				t.Fatalf("%s query %d: binary answer %v != local %v", endpoint, i, ba[i], want)
			}
		}
	}

	// A stale Accept: application/x-gc-binary falls back to JSON.
	frame, err := graph.EncodeBinary(queries[:1])
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/query", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set("Accept", ContentTypeBinary)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var stale QueryResponse
	err = json.NewDecoder(res.Body).Decode(&stale)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != contentTypeJSON || err != nil {
		t.Fatalf("stale binary Accept: status %d, Content-Type %q, decode error %v; want 200 application/json",
			res.StatusCode, res.Header.Get("Content-Type"), err)
	}
	if want := method.Answer(base, queries[0]); !eq(stale.Answer, want) {
		t.Errorf("stale binary Accept: answer %v != local %v", stale.Answer, want)
	}

	samples := scrapeMetrics(t, s.Addr())
	for _, check := range []struct {
		name      string
		labels    map[string]string
		populated bool
	}{
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "request"}, true},
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "text", "direction": "request"}, true},
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "text", "direction": "response"}, true},
		{"graphcache_codec_bytes_total", map[string]string{"codec": "binary", "direction": "in"}, true},
		{"graphcache_server_codec_seconds_count", map[string]string{"op": "decode", "codec": "binary"}, true},
		{"graphcache_server_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "response"}, false},
		{"graphcache_codec_bytes_total", map[string]string{"codec": "binary", "direction": "out"}, false},
		{"graphcache_server_codec_seconds_count", map[string]string{"op": "encode", "codec": "binary"}, false},
	} {
		v, ok := metricValue(samples, check.name, check.labels)
		if check.populated && (!ok || v == 0) {
			t.Errorf("%s%v = %v, %v; want populated", check.name, check.labels, v, ok)
		}
		if !check.populated && ok {
			t.Errorf("%s%v = %v; the binary reply series must not exist", check.name, check.labels, v)
		}
	}
}

// slowVerifyMethod delays every verification so a batch is still
// mid-verify when the test cancels it. Wrapping hides the optional
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

// TestStreamCancellationAbandonsBatch kills a buffered client mid-batch,
// while it waits for its reply, and asserts the backend half of what the
// router's cancellation test checks end to end: the server notices the
// disconnect through the request context, abandons the rest of the
// batch, and counts the cancellation on /metrics.
func TestStreamCancellationAbandonsBatch(t *testing.T) {
	ds := testDataset(40, 321)
	queries := testWorkload(ds, 32, 322)
	slow := &slowVerifyMethod{Method: ggsx.New(ds, ggsx.Options{}), delay: 3 * time.Millisecond}
	c := core.New(slow, core.Options{CacheSize: 20, WindowSize: 5})
	s := startServer(t, c, Options{})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := NewClient(s.Addr()).QueryBatch(ctx, queries); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("buffered batch: error = %v; want the client's own departure", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		samples := scrapeMetrics(t, s.Addr())
		v, ok := metricValue(samples, "graphcache_server_stream_cancelled_total", nil)
		if ok && v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("buffered batch: stream_cancelled_total = %v, %v; want >= 1 after client disconnect", v, ok)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
