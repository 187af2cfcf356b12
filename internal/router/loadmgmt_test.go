package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"graphcache/internal/faultproxy"
	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// startFaultProxy parks a chaos proxy in front of target and tears it
// down with the test.
func startFaultProxy(t *testing.T, target string, seed int64) *faultproxy.Proxy {
	t.Helper()
	p := faultproxy.New(target, seed)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("faultproxy Start: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			t.Errorf("faultproxy Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("faultproxy Serve: %v", err)
		}
	})
	return p
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHandlerOnlyRouterReadmits pins the lazy-breaker contract for
// embeddings that never call Start: with no background prober, a backend
// whose breaker opened must still be readmitted — the first dispatch
// after the cooldown half-opens the breaker and serves as the probe.
// (The old healthy-flag design could not do this: only the prober
// readmitted, so a handler-only Router ejected backends forever.)
func TestHandlerOnlyRouterReadmits(t *testing.T) {
	ds := testDataset(40, 81)
	queries := testWorkload(ds, 4, 82)
	ctx := context.Background()

	b := startBackend(t, ds)
	fp := startFaultProxy(t, b.Addr(), 1)
	rt, err := New(Options{
		Backends:          []string{fp.Addr()},
		ErrorBudget:       0.01,
		BreakerMinSamples: 1,
		BreakerCooldown:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Handler-only: no Start, no prober — the daemon lifecycle never runs.
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	cl := server.NewClient(hs.URL)

	if _, err := cl.Query(ctx, queries[0]); err != nil {
		t.Fatalf("healthy Query: %v", err)
	}

	// Sever everything: the next dispatch fails and opens the breaker.
	fp.SetDropRate(1)
	if _, err := cl.Query(ctx, queries[1]); err == nil {
		t.Fatal("Query through a 100% drop rate succeeded")
	}
	if st := rt.backends()[0].br.State(); st != StateOpen {
		t.Fatalf("breaker %v after failed dispatch, want open", st)
	}

	// Heal the backend and out-wait the cooldown. Nothing observes the
	// recovery — no prober exists — until the next dispatch probes.
	fp.SetDropRate(0)
	time.Sleep(250 * time.Millisecond)
	if _, err := cl.Query(ctx, queries[2]); err != nil {
		t.Fatalf("Query after cooldown: %v (handler-only router never readmitted)", err)
	}
	if st := rt.backends()[0].br.State(); st != StateClosed {
		t.Fatalf("breaker %v after successful probe dispatch, want closed", st)
	}
	c := rt.backends()[0].br.Counts()
	if c.Opens < 1 || c.HalfOpens < 1 || c.Closes < 1 {
		t.Errorf("counts %+v, want a full open → half-open → closed cycle", c)
	}
}

// TestCanceledContextAbandonsQueuedRequest pins end-to-end context
// propagation through the bounded queue: a request waiting for a
// saturated backend's slot is abandoned the moment its context dies —
// before it ever reaches the backend.
func TestCanceledContextAbandonsQueuedRequest(t *testing.T) {
	ds := testDataset(40, 83)
	queries := testWorkload(ds, 2, 84)

	b := startBackend(t, ds)
	fp := startFaultProxy(t, b.Addr(), 1)
	fp.SetLatency(400 * time.Millisecond) // hold the only slot occupied
	rt, err := New(Options{
		Backends:     []string{fp.Addr()},
		QueueBound:   1,
		QueueTimeout: 30 * time.Second, // only ctx may end the wait
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	bodies := wireBodies(t, queries[:2]...)
	// First request occupies the single dispatch slot for ~400ms.
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := rt.queryOne(context.Background(), bodies[0], false)
		firstDone <- err
	}()
	waitFor(t, "the slot to be taken", func() bool { return len(rt.backends()[0].slots) == 1 })

	// Second request queues behind it, then its client disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		_, _, err := rt.queryOne(ctx, bodies[1], false)
		queuedDone <- err
	}()
	waitFor(t, "the request to queue", func() bool { return rt.backends()[0].queued.Load() == 1 })
	cancel()

	if err := <-queuedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request finished with %v, want context.Canceled", err)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first request: %v", err)
	}
	// The canceled request must never have reached the backend: exactly
	// one request crossed the proxy.
	if c := fp.Counts(); c.Forwarded != 1 {
		t.Errorf("proxy forwarded %d requests, want 1 (the canceled one leaked through)", c.Forwarded)
	}
	if c := rt.Counters(); c.Ejected != 0 {
		t.Errorf("a canceled queued request opened a breaker: %+v", c)
	}
}

// TestOverloadShedding pins the front door: when fleet-wide admitted
// work crosses ShedThreshold, /query answers 429 with a Retry-After
// hint instead of queueing without bound.
func TestOverloadShedding(t *testing.T) {
	ds := testDataset(40, 85)
	queries := testWorkload(ds, 1, 86)

	b := startBackend(t, ds)
	fp := startFaultProxy(t, b.Addr(), 1)
	fp.SetLatency(500 * time.Millisecond) // requests dwell, depth builds
	rt := startRouter(t, Options{
		Backends:      []string{fp.Addr()},
		ProbeInterval: time.Hour,
		QueueBound:    2,
		QueueTimeout:  5 * time.Second,
		ShedThreshold: 2,
	})

	text, err := graph.EncodeText([]*graph.Graph{queries[0]})
	if err != nil {
		t.Fatalf("encoding query: %v", err)
	}
	body, _ := json.Marshal(server.QueryRequest{Graph: string(text)})

	const burst = 8
	type reply struct {
		status     int
		retryAfter string
	}
	replies := make(chan reply, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := http.Post("http://"+rt.Addr()+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST /query: %v", err)
				return
			}
			defer res.Body.Close()
			var out bytes.Buffer
			out.ReadFrom(res.Body)
			replies <- reply{status: res.StatusCode, retryAfter: res.Header.Get("Retry-After")}
		}()
	}
	wg.Wait()
	close(replies)

	served, shed := 0, 0
	for r := range replies {
		switch r.status {
		case http.StatusOK:
			served++
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Error("429 reply missing its Retry-After hint")
			}
		default:
			t.Errorf("unexpected status %d during overload", r.status)
		}
	}
	if served == 0 {
		t.Error("overload shed every request; admitted work should still be served")
	}
	if shed == 0 {
		t.Errorf("burst of %d over threshold 2 shed nothing", burst)
	}
	if c := rt.Counters(); c.Shed == 0 {
		t.Errorf("counters %+v, want shed > 0", c)
	}
}

// TestChaosDrillZeroClientFailures is the fault drill, under each
// legacyModes value, meant
// for -race: one backend drops half its traffic and flaps fully dead for
// a stretch, yet a resilient client sees zero failed requests and
// byte-identical answers to a direct gcserved; the flaky backend's
// breaker cycles open → half-open → closed observably in /stats.
func TestChaosDrillZeroClientFailures(t *testing.T) {
	ds := testDataset(40, 87)
	queries := testWorkload(ds, 30, 88)
	ctx := context.Background()

	direct := startBackend(t, ds)
	directCl := server.NewClient(direct.Addr())
	want := make([][]int32, len(queries))
	for i, q := range queries {
		resp, err := directCl.Query(ctx, q)
		if err != nil {
			t.Fatalf("direct Query %d: %v", i, err)
		}
		want[i] = resp.Answer
	}

	for _, lm := range legacyModes {
		t.Run(lm.name, func(t *testing.T) {
			steady := startBackend(t, ds)
			flaky := startBackend(t, ds)
			fp := startFaultProxy(t, flaky.Addr(), 42)
			fp.SetDropRate(0.5)

			rt := startRouter(t, Options{
				Backends:          []string{steady.Addr(), fp.Addr()},
				Mode:              lm.mode,
				ProbeInterval:     25 * time.Millisecond,
				BreakerWindow:     2 * time.Second,
				ErrorBudget:       0.25,
				BreakerMinSamples: 4,
				BreakerCooldown:   100 * time.Millisecond,
			})
			cl := server.NewClientWith(rt.Addr(), server.ClientOptions{
				MaxRetries:     6,
				RetryBaseDelay: 10 * time.Millisecond,
				RetryMaxDelay:  200 * time.Millisecond,
			})

			// Phase 1: 50% of the flaky backend's traffic is dropped.
			// Router failover plus client retries must absorb all of it.
			var wg sync.WaitGroup
			errs := make(chan error, len(queries))
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q *graph.Graph) {
					defer wg.Done()
					resp, err := cl.Query(ctx, q)
					if err != nil {
						errs <- fmt.Errorf("query %d: %w", i, err)
						return
					}
					if !eq(resp.Answer, want[i]) {
						errs <- fmt.Errorf("query %d: answer %v != direct %v", i, resp.Answer, want[i])
					}
				}(i, q)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Phase 2: the flaky backend goes fully dark until its breaker
			// opens (probes and dispatches both feed it) ...
			fp.SetDropRate(1)
			waitFor(t, "the flaky backend's breaker to open", func() bool {
				return rt.backends()[1].br.Counts().Opens >= 1
			})
			// ... and queries still succeed via the steady backend.
			for i, q := range queries[:5] {
				resp, err := cl.Query(ctx, q)
				if err != nil {
					t.Fatalf("query %d with breaker open: %v", i, err)
				}
				if !eq(resp.Answer, want[i]) {
					t.Fatalf("query %d with breaker open: answer %v != direct %v", i, resp.Answer, want[i])
				}
			}

			// Phase 3: heal. The half-open probe readmits the backend.
			fp.SetDropRate(0)
			waitFor(t, "the flaky backend's breaker to close", func() bool {
				return rt.backends()[1].br.State() == StateClosed && rt.backends()[1].br.Counts().Closes >= 1
			})

			// The full cycle is observable in the aggregated /stats, and
			// the counters are monotone-sensible.
			res, err := http.Get("http://" + rt.Addr() + "/stats")
			if err != nil {
				t.Fatalf("GET /stats: %v", err)
			}
			defer res.Body.Close()
			var st StatsResponse
			if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
				t.Fatalf("decoding /stats: %v", err)
			}
			var flakyRow *BackendStats
			for i := range st.Backends {
				if st.Backends[i].Addr == fp.Addr() {
					flakyRow = &st.Backends[i]
				}
			}
			if flakyRow == nil {
				t.Fatal("/stats has no row for the flaky backend")
			}
			c := flakyRow.Breaker
			if c.Opens < 1 || c.HalfOpens < 1 || c.Closes < 1 {
				t.Errorf("/stats breaker counts %+v, want a full open → half-open → closed cycle", c.BreakerCounts)
			}
			if c.Opens < c.HalfOpens || c.HalfOpens < c.Closes {
				t.Errorf("/stats breaker counts %+v violate Opens ≥ HalfOpens ≥ Closes", c.BreakerCounts)
			}
			if c.State != StateClosed.String() || !flakyRow.Healthy {
				t.Errorf("/stats reports state %q healthy=%v after recovery, want closed/true", c.State, flakyRow.Healthy)
			}
			if rc := rt.Counters(); rc.Retried == 0 {
				t.Errorf("counters %+v: a 50%% drop rate should have forced retries", rc)
			}
		})
	}
}
