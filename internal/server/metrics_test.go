package server

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/telemetry"
)

// scrapeMetrics GETs the server's /metrics and returns the parsed
// samples.
func scrapeMetrics(t *testing.T, addr string) []telemetry.Sample {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q; want the 0.0.4 text exposition", ct)
	}
	samples, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return samples
}

func metricValue(samples []telemetry.Sample, name string, labels map[string]string) (float64, bool) {
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

// TestServerMetricsEndpoint runs singles and a batch through a live
// gcserved and asserts the /metrics exposition carries populated stage
// histograms, query counters and serving-boundary series.
func TestServerMetricsEndpoint(t *testing.T) {
	ds := testDataset(40, 201)
	queries := testWorkload(ds, 12, 202)
	s := startServer(t, newTestCache(ds), Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	for i, q := range queries[:8] {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	if _, err := cl.QueryBatch(ctx, queries[8:]); err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}

	// Each result is folded into the metrics before it is delivered, so one
	// scrape right after the last reply sees every query.
	samples := scrapeMetrics(t, s.Addr())
	observed := 0.0
	for _, smp := range samples {
		if smp.Name == "graphcache_queries_total" {
			observed += smp.Value
		}
	}
	if observed != float64(len(queries)) {
		t.Fatalf("graphcache_queries_total sums to %v right after the last reply, want %d", observed, len(queries))
	}
	for _, stage := range []string{"feature", "probe", "gcverify", "filter_m", "filter_gc", "verify", "total"} {
		if _, ok := metricValue(samples, "graphcache_query_duration_seconds_count",
			map[string]string{"stage": stage}); !ok {
			t.Errorf("stage %q histogram missing from exposition", stage)
		}
	}
	// The pipeline times its GC sub-stages for every run, so the batch's
	// queries are in the finer histograms too, not only the singles.
	for _, stage := range []string{"feature", "probe", "gcverify", "filter_gc"} {
		if v, _ := metricValue(samples, "graphcache_query_duration_seconds_count",
			map[string]string{"stage": stage}); v != float64(len(queries)) {
			t.Errorf("stage=%s count = %v; want %d (singles and the /querybatch request)", stage, v, len(queries))
		}
	}
	if v, ok := metricValue(samples, "graphcache_query_duration_seconds_count",
		map[string]string{"stage": "total"}); !ok || v < float64(len(queries)) {
		t.Errorf("stage=total count = %v, %v; want >= %d", v, ok, len(queries))
	}
	if v, ok := metricValue(samples, "graphcache_queries_total",
		map[string]string{"path": "single"}); !ok || v != 8 {
		t.Errorf("queries_total{path=single} = %v, %v; want 8", v, ok)
	}
	if v, ok := metricValue(samples, "graphcache_queries_total",
		map[string]string{"path": "batched"}); !ok || v != float64(len(queries)-8) {
		t.Errorf("queries_total{path=batched} = %v, %v; want %d", v, ok, len(queries)-8)
	}
	if v, ok := metricValue(samples, "graphcache_server_codec_seconds_count",
		map[string]string{"op": "decode"}); !ok || v == 0 {
		t.Errorf("codec decode histogram = %v, %v; want populated", v, ok)
	}
	// Eight runs of one query each, one per /query, plus the /querybatch run.
	count, _ := metricValue(samples, "graphcache_server_batch_size_count", nil)
	sum, _ := metricValue(samples, "graphcache_server_batch_size_sum", nil)
	if count != 9 || sum != float64(len(queries)) {
		t.Errorf("batch size histogram: %v runs of %v queries; want 9 runs (8 of one) of %d", count, sum, len(queries))
	}
	if _, ok := metricValue(samples, "graphcache_server_admitted_queries", nil); !ok {
		t.Error("admitted gauge missing")
	}
	if _, ok := metricValue(samples, "graphcache_cached_queries", nil); !ok {
		t.Error("cached gauge missing")
	}
}

// TestServerTraceAndStats checks ?debug=trace span assembly, on /query
// and on every result of a /querybatch, and the /stats
// build-identification fields on a live server.
func TestServerTraceAndStats(t *testing.T) {
	ds := testDataset(40, 211)
	queries := testWorkload(ds, 2, 212)
	s := startServer(t, newTestCache(ds), Options{})
	cl := NewClient(s.Addr())
	ctx := telemetry.WithRequestID(context.Background(), "aaaabbbbccccdddd")

	resp, err := cl.QueryTrace(ctx, queries[0])
	if err != nil {
		t.Fatalf("QueryTrace: %v", err)
	}
	if resp.Trace == nil {
		t.Fatal("?debug=trace returned no trace")
	}
	if resp.Trace.RequestID != "aaaabbbbccccdddd" {
		t.Fatalf("trace request id %q; want the caller's", resp.Trace.RequestID)
	}
	var names []string
	for _, sp := range resp.Trace.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"server:decode", "engine:filter_gc", "engine:feature",
		"engine:probe", "engine:gcverify", "engine:total"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace spans %v missing %q", names, want)
		}
	}
	// The GC stage's parts: never negative, and for a lone query they add
	// up to the stage itself (1 ms of slack).
	span := func(name string) int64 {
		for _, sp := range resp.Trace.Spans {
			if sp.Name == name {
				return sp.DurNS
			}
		}
		return 0
	}
	feature, probe, gcverify := span("engine:feature"), span("engine:probe"), span("engine:gcverify")
	if feature < 0 || probe < 0 || gcverify < 0 {
		t.Errorf("negative GC-stage span: feature %d, probe %d, gcverify %d ns", feature, probe, gcverify)
	}
	if sum, gc := feature+probe+gcverify, span("engine:filter_gc"); sum > gc+int64(time.Millisecond) {
		t.Errorf("GC-stage spans sum to %d ns, more than engine:filter_gc %d ns + 1 ms", sum, gc)
	}

	// A traced /querybatch gives every result the caller's id, the
	// request's decode and its own engine spans.
	frame, err := graph.EncodeBinary(queries)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cl.QueryBatchFrame(ctx, frame, len(queries), true)
	if err != nil {
		t.Fatalf("QueryBatchFrame with trace: %v", err)
	}
	for i, res := range batch {
		if res.Trace == nil || res.Trace.RequestID != "aaaabbbbccccdddd" {
			t.Fatalf("batch result %d: trace %+v; want one under the caller's id", i, res.Trace)
		}
		var names []string
		for _, sp := range res.Trace.Spans {
			names = append(names, sp.Name)
		}
		if joined := strings.Join(names, ","); !strings.HasPrefix(joined, "server:decode,") ||
			!strings.Contains(joined, "engine:verify") || !strings.Contains(joined, "engine:total") {
			t.Errorf("batch result %d: trace spans %v; want server:decode then the engine's", i, names)
		}
	}

	// An untraced query carries no trace payload.
	plain, err := cl.Query(ctx, queries[1])
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if plain.Trace != nil {
		t.Error("untraced query returned a trace")
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v; want > 0", st.UptimeSeconds)
	}
	if !strings.HasPrefix(st.GoVersion, "go") {
		t.Errorf("go_version = %q; want a goN.N", st.GoVersion)
	}
	if st.Build == "" {
		t.Error("build is empty")
	}
}
