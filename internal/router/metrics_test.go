package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// scrape GETs url's Prometheus exposition and returns the parsed samples
// keyed by name plus rendered labels.
func scrape(t *testing.T, url string) []telemetry.Sample {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	samples, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing %s exposition: %v", url, err)
	}
	return samples
}

// sampleValue returns the first sample matching name and every given
// label, and whether one exists.
func sampleValue(samples []telemetry.Sample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// TestRouterMetricsEndpoint drives queries through a router over one
// real backend and asserts the fleet-level exposition on both the query
// plane and the admin plane: routed counters, per-backend dispatch
// histograms and queue-depth gauges, and no graphcache_query_* family —
// each query's stages and hits are counted once, by the backend, whose
// scrape right after the last reply already counts every query.
func TestRouterMetricsEndpoint(t *testing.T) {
	ds := testDataset(40, 171)
	queries := testWorkload(ds, 12, 172)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b.Addr()}, AdminAddr: "127.0.0.1:0"})

	cl := server.NewClient(rt.Addr())
	ctx := context.Background()
	for i, q := range queries[:8] {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	if _, err := cl.QueryBatch(ctx, queries[8:]); err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}

	backend := 0.0
	bsamples := scrape(t, "http://"+b.Addr()+"/metrics")
	for _, smp := range bsamples {
		if smp.Name == "graphcache_queries_total" {
			backend += smp.Value
		}
	}
	if backend != float64(len(queries)) {
		t.Errorf("backend graphcache_queries_total sums to %v right after the last reply, want %d", backend, len(queries))
	}
	if v, ok := sampleValue(bsamples, "graphcache_query_duration_seconds_count",
		map[string]string{"stage": "total"}); !ok || v != float64(len(queries)) {
		t.Errorf("backend stage=total histogram = %v, %v right after the last reply; want %d", v, ok, len(queries))
	}
	for _, url := range []string{
		"http://" + rt.Addr() + "/metrics",
		"http://" + rt.AdminAddr() + "/metrics",
	} {
		samples := scrape(t, url)
		if v, ok := sampleValue(samples, "graphcache_router_routed_total", nil); !ok || v < float64(len(queries)) {
			t.Errorf("%s: graphcache_router_routed_total = %v, %v; want >= %d", url, v, ok, len(queries))
		}
		if v, ok := sampleValue(samples, "graphcache_router_dispatch_seconds_count",
			map[string]string{"backend": b.Addr()}); !ok || v == 0 {
			t.Errorf("%s: per-backend dispatch histogram missing or empty (ok=%v v=%v)", url, ok, v)
		}
		for _, fam := range metricFamilies(t, url) {
			if strings.HasPrefix(fam, "graphcache_query_") {
				t.Errorf("%s registers %s, which its backends count", url, fam)
			}
		}
		if _, ok := sampleValue(samples, "graphcache_router_backend_queue_depth",
			map[string]string{"backend": b.Addr()}); !ok {
			t.Errorf("%s: queue-depth gauge missing", url)
		}
		if v, ok := sampleValue(samples, "graphcache_router_backends", nil); !ok || v != 1 {
			t.Errorf("%s: graphcache_router_backends = %v, %v; want 1", url, v, ok)
		}
	}
}

// TestRouterTraceRequestID is the end-to-end tracing check: a traced
// query through the router must come back with (1) the response header
// carrying the id the router minted, (2) the trace carrying that same
// id — proving the backend adopted the router's id rather than minting
// its own — and (3) spans from both hops, the router's first. A traced
// /querybatch must bring back the same on every result.
func TestRouterTraceRequestID(t *testing.T) {
	ds := testDataset(40, 181)
	queries := testWorkload(ds, 2, 182)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b.Addr()}})

	text, err := graph.EncodeText([]*graph.Graph{queries[0]})
	if err != nil {
		t.Fatalf("EncodeText: %v", err)
	}
	body, _ := json.Marshal(server.QueryRequest{Graph: string(text)})
	resp, err := http.Post("http://"+rt.Addr()+"/query?debug=trace", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query?debug=trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	minted := resp.Header.Get(telemetry.RequestIDHeader)
	if minted == "" {
		t.Fatal("router did not echo a request id")
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	checkTrace := func(what string, tr *telemetry.Trace) {
		t.Helper()
		if tr == nil {
			t.Fatalf("%s: ?debug=trace returned no trace", what)
		}
		if tr.RequestID != minted {
			t.Fatalf("%s: trace request id %q != header id %q", what, tr.RequestID, minted)
		}
		var haveRouter, haveEngine bool
		for _, sp := range tr.Spans {
			if strings.HasPrefix(sp.Name, "router:") {
				haveRouter = true
			}
			if strings.HasPrefix(sp.Name, "engine:") {
				haveEngine = true
			}
			if sp.DurNS < 0 {
				t.Errorf("%s: span %s has negative duration %d", what, sp.Name, sp.DurNS)
			}
		}
		if !haveRouter || !haveEngine {
			t.Fatalf("%s: trace spans missing a hop (router=%v engine=%v): %+v", what, haveRouter, haveEngine, tr.Spans)
		}
		// The router's spans come first: its decode, then the dispatch
		// naming the backend that answered.
		if len(tr.Spans) < 2 || tr.Spans[0].Name != "router:decode" || tr.Spans[1].Name != "router:dispatch "+b.Addr() {
			t.Errorf("%s: router spans not prepended; spans %+v", what, tr.Spans)
		}
	}
	checkTrace("/query", qr.Trace)

	// A traced batch carries the same id and both hops' spans on every
	// result.
	text, err = graph.EncodeText(queries)
	if err != nil {
		t.Fatalf("EncodeText: %v", err)
	}
	batchBody, _ := json.Marshal(server.BatchRequest{Graphs: string(text)})
	bresp, err := http.Post("http://"+rt.Addr()+"/querybatch?debug=trace", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		t.Fatalf("POST /querybatch?debug=trace: %v", err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", bresp.StatusCode)
	}
	minted = bresp.Header.Get(telemetry.RequestIDHeader)
	var br server.BatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("batch of %d queries got %d results", len(queries), len(br.Results))
	}
	for i, res := range br.Results {
		checkTrace(fmt.Sprintf("/querybatch result %d", i), res.Trace)
	}

	// An id supplied by the caller (a router fronting this router) is
	// kept, not replaced.
	req, _ := http.NewRequest(http.MethodPost, "http://"+rt.Addr()+"/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.RequestIDHeader, "feedfacecafebeef")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /query with id: %v", err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get(telemetry.RequestIDHeader); got != "feedfacecafebeef" {
		t.Fatalf("inbound request id replaced: got %q", got)
	}
}

// TestCountersEjectedMonotoneAcrossDrain is the regression test for the
// Counters/Drain hand-off race: a drained backend's breaker opens must
// stay counted once, neither double-counted nor dropped when the
// topology shrinks. The poller hammers Counters through the whole drain
// and asserts Ejected never decreases.
func TestCountersEjectedMonotoneAcrossDrain(t *testing.T) {
	rt, err := New(Options{Backends: []string{"127.0.0.1:9001", "127.0.0.1:9002"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b0 := rt.backends()[0]
	// Trip the breaker so the drained backend carries a nonzero Opens.
	for i := 0; i < rt.tun.breakerMinSamples; i++ {
		b0.br.Record(false)
	}
	if got := b0.br.Counts().Opens; got != 1 {
		t.Fatalf("breaker opens = %d; want 1", got)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violation error
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := rt.Counters()
			if c.Ejected < last {
				violation = fmt.Errorf("Ejected decreased: %d -> %d", last, c.Ejected)
				return
			}
			last = c.Ejected
		}
	}()

	if err := rt.Drain(context.Background(), "127.0.0.1:9001"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if violation != nil {
		t.Fatal(violation)
	}
	if got := rt.Counters().Ejected; got != 1 {
		t.Fatalf("Ejected after drain = %d; want 1", got)
	}
}

// TestBreakerStateAge drives a breaker through its states with a fake
// clock and checks the age resets on every transition, and that the
// topology view exposes it.
func TestBreakerStateAge(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	br := newBreaker(breakerConfig{
		window: 10 * time.Second, budget: 0.5, minSamples: 1,
		cooldown: time.Second, now: clock,
	})
	now = now.Add(5 * time.Second)
	if got := br.StateAge(); got != 5*time.Second {
		t.Fatalf("closed age = %v; want 5s", got)
	}
	br.Record(false) // opens
	if got := br.State(); got != StateOpen {
		t.Fatalf("state = %v; want open", got)
	}
	if got := br.StateAge(); got != 0 {
		t.Fatalf("age after open = %v; want 0", got)
	}
	now = now.Add(2 * time.Second)
	if !br.Allow() { // cooled down: half-opens and admits the probe
		t.Fatal("Allow after cooldown = false")
	}
	if got := br.State(); got != StateHalfOpen {
		t.Fatalf("state = %v; want half-open", got)
	}
	if got := br.StateAge(); got != 0 {
		t.Fatalf("age after half-open = %v; want 0", got)
	}
	now = now.Add(time.Second)
	br.Record(true) // closes
	if got := br.State(); got != StateClosed {
		t.Fatalf("state = %v; want closed", got)
	}
	if got := br.StateAge(); got != 0 {
		t.Fatalf("age after close = %v; want 0", got)
	}

	rt, err := New(Options{Backends: []string{"127.0.0.1:9001"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st := rt.BackendStats()
	if st[0].Breaker.StateAgeSeconds < 0 {
		t.Fatalf("topology state age negative: %v", st[0].Breaker.StateAgeSeconds)
	}
}

// TestBreakerTransitionCounter checks that fleet breaker transitions
// land in the labelled counter family.
func TestBreakerTransitionCounter(t *testing.T) {
	rt, err := New(Options{Backends: []string{"127.0.0.1:9001", "127.0.0.1:9002"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b0 := rt.backends()[0]
	for i := 0; i < rt.tun.breakerMinSamples; i++ {
		b0.br.Record(false)
	}
	var buf bytes.Buffer
	if err := rt.Metrics().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	samples, err := telemetry.ParseProm(&buf)
	if err != nil {
		t.Fatalf("ParseProm: %v", err)
	}
	if v, ok := sampleValue(samples, "graphcache_router_breaker_transitions_total",
		map[string]string{"state": "open"}); !ok || v != 1 {
		t.Fatalf("breaker open transitions = %v, %v; want 1", v, ok)
	}
}
