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
// histograms, engine-stage histograms rebuilt from backend replies —
// complete, like the backend's own, as soon as the last reply is in —
// and queue-depth gauges.
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
	for _, smp := range scrape(t, "http://"+b.Addr()+"/metrics") {
		if smp.Name == "graphcache_queries_total" {
			backend += smp.Value
		}
	}
	if backend != float64(len(queries)) {
		t.Errorf("backend graphcache_queries_total sums to %v right after the last reply, want %d", backend, len(queries))
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
		// Each reply is folded before the router answers, so one scrape
		// right after the last reply counts every query exactly once.
		if v, ok := sampleValue(samples, "graphcache_query_duration_seconds_count",
			map[string]string{"stage": "total"}); !ok || v != float64(len(queries)) {
			t.Errorf("%s: stage=total histogram = %v, %v; want %d", url, v, ok, len(queries))
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
// its own — and (3) spans from both hops.
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
	if qr.Trace == nil {
		t.Fatal("?debug=trace returned no trace")
	}
	if qr.Trace.RequestID != minted {
		t.Fatalf("trace request id %q != header id %q", qr.Trace.RequestID, minted)
	}
	var haveRouter, haveEngine bool
	for _, sp := range qr.Trace.Spans {
		if strings.HasPrefix(sp.Name, "router:") {
			haveRouter = true
		}
		if strings.HasPrefix(sp.Name, "engine:") {
			haveEngine = true
		}
		if sp.DurNS < 0 {
			t.Errorf("span %s has negative duration %d", sp.Name, sp.DurNS)
		}
	}
	if !haveRouter || !haveEngine {
		t.Fatalf("trace spans missing a hop (router=%v engine=%v): %+v", haveRouter, haveEngine, qr.Trace.Spans)
	}
	if !strings.HasPrefix(qr.Trace.Spans[0].Name, "router:") {
		t.Errorf("router spans not prepended; first span is %s", qr.Trace.Spans[0].Name)
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
// Counters/Drain hand-off race: Drain folds the departing backend's
// breaker opens into ejectedGone and then shrinks the topology; a
// concurrent Counters must never observe both (Ejected would
// double-count, then shrink). The poller hammers Counters through the
// whole drain and asserts Ejected never decreases.
func TestCountersEjectedMonotoneAcrossDrain(t *testing.T) {
	rt, err := New(Options{Backends: []string{"127.0.0.1:9001", "127.0.0.1:9002"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b0 := rt.backends()[0]
	// Trip the breaker so the drained backend carries a nonzero Opens.
	for i := 0; i < rt.opts.BreakerMinSamples; i++ {
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
		cooldown: time.Second, probes: 1, now: clock,
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
	for i := 0; i < rt.opts.BreakerMinSamples; i++ {
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
