package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/server"
)

// answersVia runs queries through one endpoint of cl — singles or one
// batch — and returns the answers in request order.
func answersVia(ctx context.Context, cl *server.Client, endpoint string, queries []*graph.Graph) ([][]int32, error) {
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

// TestRouterBinaryWireMatchesText drives a text-wire and a binary-wire
// client through one router, under each legacyModes value, over every
// query endpoint: a
// binary request and a text request get the same JSON reply, every answer equal to the bare method's. A request still asking for
// the deleted binary result format gets the JSON reply, and the router
// negotiates binary for requests only.
func TestRouterBinaryWireMatchesText(t *testing.T) {
	ds := testDataset(40, 401)
	queries := testWorkload(ds, 16, 402)
	base := method.NewVF2Plus(ds)
	ctx := context.Background()

	for _, lm := range legacyModes {
		t.Run(lm.name, func(t *testing.T) {
			backends := []string{startBackend(t, ds).Addr(), startBackend(t, ds).Addr()}
			rt := startRouter(t, Options{Backends: backends, Mode: lm.mode})
			text := server.NewClient(rt.Addr())
			bin := server.NewClientWith(rt.Addr(), server.ClientOptions{WireBinary: true})

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
			frame, err := graph.EncodeBinary(queries)
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, "http://"+rt.Addr()+"/querybatch", bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", server.ContentTypeBinary)
			req.Header.Set("Accept", server.ContentTypeBinary)
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var stale server.BatchResponse
			err = json.NewDecoder(res.Body).Decode(&stale)
			res.Body.Close()
			if res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != "application/json" || err != nil {
				t.Fatalf("stale binary Accept: status %d, Content-Type %q, decode error %v; want 200 application/json",
					res.StatusCode, res.Header.Get("Content-Type"), err)
			}
			if len(stale.Results) != len(queries) {
				t.Fatalf("stale binary Accept: %d results for %d queries", len(stale.Results), len(queries))
			}

			samples := scrape(t, "http://"+rt.Addr()+"/metrics")
			for _, check := range []struct {
				name      string
				labels    map[string]string
				populated bool
			}{
				{"graphcache_router_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "request"}, true},
				{"graphcache_router_wire_negotiated_total", map[string]string{"codec": "text", "direction": "request"}, true},
				{"graphcache_router_wire_negotiated_total", map[string]string{"codec": "text", "direction": "response"}, true},
				{"graphcache_codec_bytes_total", map[string]string{"codec": "binary", "direction": "in"}, true},
				{"graphcache_router_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "response"}, false},
				{"graphcache_codec_bytes_total", map[string]string{"codec": "binary", "direction": "out"}, false},
			} {
				v, ok := sampleValue(samples, check.name, check.labels)
				if check.populated && (!ok || v == 0) {
					t.Errorf("%s%v = %v, %v; want populated", check.name, check.labels, v, ok)
				}
				if !check.populated && ok {
					t.Errorf("%s%v = %v; the binary reply series must not exist", check.name, check.labels, v)
				}
			}
		})
	}
}

// TestFirstDispatchToJoinerIsBinary: the router→backend leg is binary
// from a backend's first dispatch — no probe has to discover anything.
// The prober is parked (one-hour interval), a backend joins, the
// original is drained, and the very next query must move the joiner's
// binary-request counter.
func TestFirstDispatchToJoinerIsBinary(t *testing.T) {
	ds := testDataset(40, 431)
	queries := testWorkload(ds, 4, 432)
	ctx := context.Background()
	first, joiner := startBackend(t, ds), startBackend(t, ds)
	tun := defaultTuning
	tun.probeInterval = time.Hour
	rt := startTunedRouter(t, Options{Backends: []string{first.Addr()}}, tun)
	if _, err := rt.Join(ctx, joiner.Addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := rt.Drain(ctx, first.Addr()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := server.NewClient(rt.Addr()).Query(ctx, queries[0]); err != nil {
		t.Fatalf("Query: %v", err)
	}
	v, ok := sampleValue(scrape(t, "http://"+joiner.Addr()+"/metrics"),
		"graphcache_server_wire_negotiated_total", map[string]string{"codec": "binary", "direction": "request"})
	if !ok || v < 1 {
		t.Errorf("joiner's binary request count after its first dispatch = %v, %v; want >= 1", v, ok)
	}
}

// slowVerifyMethod delays every verification so a batch is still
// mid-verify when the test cancels it.
type slowVerifyMethod struct {
	method.Method
	delay time.Duration
}

func (m *slowVerifyMethod) Verify(q *graph.Graph, id int32) bool {
	time.Sleep(m.delay)
	return m.Method.Verify(q, id)
}

// startSlowBackend is startBackend over a verification-delayed method.
func startSlowBackend(t *testing.T, ds *dataset.Dataset, delay time.Duration) *server.Server {
	t.Helper()
	return serveCache(t, core.New(&slowVerifyMethod{Method: ggsx.New(ds, ggsx.Options{}), delay: delay},
		core.Options{CacheSize: 20, WindowSize: 5}))
}

// TestRouterStreamCancellationPropagates lets a buffered batch's client
// deadline pass while the one backend behind the router is still
// verifying, and asserts the cancellation travels the whole path: the
// router dispatched the batch under the request's context, so the
// backend abandons the batch and counts the cut run.
func TestRouterStreamCancellationPropagates(t *testing.T) {
	ds := testDataset(40, 421)
	queries := testWorkload(ds, 32, 422)
	bk := startSlowBackend(t, ds, 10*time.Millisecond)
	rt := startRouter(t, Options{Backends: []string{bk.Addr()}})
	cl := server.NewClient(rt.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := cl.QueryBatch(ctx, queries); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryBatch error = %v; want the client's deadline", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := sampleValue(scrape(t, "http://"+bk.Addr()+"/metrics"), "graphcache_server_stream_cancelled_total", nil)
		if ok && v >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend stream_cancelled_total = %v, %v; want >= 1 after the client's deadline", v, ok)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
