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
	tun := defaultTuning
	tun.errorBudget, tun.breakerMinSamples, tun.breakerCooldown = 0.01, 1, 200*time.Millisecond
	rt, err := newRouter(Options{Backends: []string{fp.Addr()}}, tun)
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
	tun := defaultTuning
	tun.slots = 1
	tun.slotWait = 30 * time.Second // only ctx may end the wait
	rt, err := newRouter(Options{Backends: []string{fp.Addr()}}, tun)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	bodies := wireBodies(t, queries[:2]...)
	// First request occupies the single dispatch slot for ~400ms.
	firstDone := make(chan error, 1)
	go func() {
		firstDone <- routeOne(context.Background(), rt, bodies[0])
	}()
	waitFor(t, "the slot to be taken", func() bool { return len(rt.backends()[0].slots) == 1 })

	// Second request queues behind it, then its client disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		queuedDone <- routeOne(ctx, rt, bodies[1])
	}()
	waitFor(t, "the request to queue", func() bool { return rt.backends()[0].queued.Load() == 1 })
	// /topology's view of the backend: one dispatch holds its slot, one waits.
	if st := rt.BackendStats()[0]; st.Pending != 1 || st.Queued != 1 {
		t.Errorf("backend stats pending %d, queued %d; want 1, 1", st.Pending, st.Queued)
	}
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
// work crosses twice the fleet's dispatch slots, /query answers 429
// with a Retry-After hint instead of queueing without bound. One
// backend with one slot puts the threshold at 2.
func TestOverloadShedding(t *testing.T) {
	ds := testDataset(40, 85)
	queries := testWorkload(ds, 1, 86)

	b := startBackend(t, ds)
	fp := startFaultProxy(t, b.Addr(), 1)
	fp.SetLatency(500 * time.Millisecond) // requests dwell, depth builds
	tun := defaultTuning
	tun.probeInterval = time.Hour
	tun.slots = 1
	tun.slotWait = 5 * time.Second
	rt := startTunedRouter(t, Options{Backends: []string{fp.Addr()}}, tun)

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

// TestOverloadSheddingFollowsTopology pins the shed threshold to the
// live fleet: twice the dispatch slots of every backend in the topology
// a request loads. A one-backend router admits a batch of 2 × 64 and
// sheds one more query; after a join it admits 2 × 64 × 2; after a
// drain it sheds past 2 × 64 again.
func TestOverloadSheddingFollowsTopology(t *testing.T) {
	ds := testDataset(40, 89)
	q := testWorkload(ds, 1, 90)[0]
	ctx := context.Background()
	b1, b2 := startBackend(t, ds), startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b1.Addr()}})

	// batch posts n copies of q as one binary /querybatch and returns the
	// reply's status.
	batch := func(n int) int {
		t.Helper()
		qs := make([]*graph.Graph, n)
		for i := range qs {
			qs[i] = q
		}
		frame, err := graph.EncodeBinary(qs)
		if err != nil {
			t.Fatal(err)
		}
		return post(t, "http://"+rt.Addr()+"/querybatch", server.ContentTypeBinary, frame)
	}
	expect := func(phase string, admitted int) {
		t.Helper()
		if got := batch(admitted); got != http.StatusOK {
			t.Errorf("%s: batch of %d answered %d, want 200", phase, admitted, got)
		}
		if got := batch(admitted + 1); got != http.StatusTooManyRequests {
			t.Errorf("%s: batch of %d answered %d, want 429", phase, admitted+1, got)
		}
	}

	expect("one backend", 2*dispatchSlots)
	if _, err := rt.Join(ctx, b2.Addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	expect("after join", 2*dispatchSlots*2)
	if err := rt.Drain(ctx, b1.Addr()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	expect("after drain", 2*dispatchSlots)
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

			tun := defaultTuning
			tun.probeInterval = 25 * time.Millisecond
			tun.breakerWindow, tun.errorBudget = 2*time.Second, 0.25
			tun.breakerMinSamples, tun.breakerCooldown = 4, 100*time.Millisecond
			rt := startTunedRouter(t, Options{Backends: []string{steady.Addr(), fp.Addr()}, Mode: lm.mode}, tun)
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
