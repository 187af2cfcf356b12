package router

import (
	"context"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/server"
	"graphcache/internal/workload"
)

func testDataset(n int, seed int64) *dataset.Dataset {
	return gen.DefaultAIDS().Scaled(float64(n)/40000, 1).Generate(seed)
}

func testWorkload(ds *dataset.Dataset, n int, seed int64) []*graph.Graph {
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, n)
	if err != nil {
		panic(err)
	}
	qs := workload.TypeA(ds, cfg, seed)
	out := make([]*graph.Graph, len(qs))
	for i, q := range qs {
		out[i] = q.Graph
	}
	return out
}

// startBackend runs one gcserved with its own cache over ds and tears it
// down with the test.
func startBackend(t testing.TB, ds *dataset.Dataset) *server.Server {
	t.Helper()
	return serveCache(t, core.New(ggsx.New(ds, ggsx.Options{}), core.Options{CacheSize: 20, WindowSize: 5}))
}

// serveCache runs one gcserved over c and tears it down with the test.
func serveCache(t testing.TB, c *core.Cache) *server.Server {
	t.Helper()
	s := server.New(c, server.Options{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatalf("backend Start: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) // idempotent-enough: double shutdown only re-closes
		<-done
	})
	return s
}

// startRouter runs a Router through its daemon lifecycle and tears it
// down with the test.
func startRouter(t testing.TB, opts Options) *Router {
	t.Helper()
	return startTunedRouter(t, opts, defaultTuning)
}

// startTunedRouter is startRouter over tun instead of the router's
// constants, for tests that need fast breakers or a parked prober.
func startTunedRouter(t testing.TB, opts Options, tun tuning) *Router {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	rt, err := newRouter(opts, tun)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("router Start: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("router Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("router Serve: %v", err)
		}
	})
	return rt
}

// routeOne routes one query as the query handler routes a /query: a
// group of one, dispatched through queryBatch.
func routeOne(ctx context.Context, rt *Router, q graph.Body) error {
	_, err := rt.queryBatch(ctx, rt.topo.Load(), []graph.Body{q}, false)
	return err
}

func eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// legacyModes names the two values Options.Mode once took. The field is
// deprecated and ignored, so a router configured with either must follow
// the one routing rule: the tests that run under both check that a
// configuration written for either mode keeps its answers and its cache
// affinity.
var legacyModes = []struct {
	name string
	mode Mode
}{
	{"replicate", Replicate},
	{"shard", Mode(1)},
}

// TestRouterModesMatchDirect is the identity check: a query stream —
// singles through /query and one batch through /querybatch — must
// produce answers byte-identical to one direct gcserved, and the
// aggregated /stats must account for every query. It runs under each
// legacyModes value.
func TestRouterModesMatchDirect(t *testing.T) {
	ds := testDataset(40, 71)
	queries := testWorkload(ds, 40, 72)
	ctx := context.Background()

	direct := startBackend(t, ds)
	directCl := server.NewClient(direct.Addr())
	want := make([][]int32, len(queries))
	for i, q := range queries[:30] {
		resp, err := directCl.Query(ctx, q)
		if err != nil {
			t.Fatalf("direct Query %d: %v", i, err)
		}
		want[i] = resp.Answer
	}
	directBatch, err := directCl.QueryBatch(ctx, queries[30:])
	if err != nil {
		t.Fatalf("direct QueryBatch: %v", err)
	}
	for i, resp := range directBatch {
		want[30+i] = resp.Answer
	}

	for _, lm := range legacyModes {
		t.Run(lm.name, func(t *testing.T) {
			backends := []string{
				startBackend(t, ds).Addr(),
				startBackend(t, ds).Addr(),
				startBackend(t, ds).Addr(),
			}
			rt := startRouter(t, Options{Backends: backends, Mode: lm.mode})
			cl := server.NewClient(rt.Addr())

			if err := cl.Healthz(ctx); err != nil {
				t.Fatalf("Healthz: %v", err)
			}
			for i, q := range queries[:30] {
				resp, err := cl.Query(ctx, q)
				if err != nil {
					t.Fatalf("routed Query %d: %v", i, err)
				}
				if !eq(resp.Answer, want[i]) {
					t.Fatalf("query %d: routed answer %v != direct %v", i, resp.Answer, want[i])
				}
			}
			results, err := cl.QueryBatch(ctx, queries[30:])
			if err != nil {
				t.Fatalf("routed QueryBatch: %v", err)
			}
			for i, resp := range results {
				if !eq(resp.Answer, want[30+i]) {
					t.Fatalf("batched query %d: routed answer %v != direct %v", 30+i, resp.Answer, want[30+i])
				}
			}

			// The plain gcserved client must understand the aggregated stats
			// (JSON superset), and the fleet-wide totals must account for every
			// routed query.
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Fatalf("Stats through plain client: %v", err)
			}
			if st.Totals.Queries != int64(len(queries)) {
				t.Errorf("aggregated totals report %d queries, want %d", st.Totals.Queries, len(queries))
			}
			if c := rt.Counters(); c.Routed != int64(len(queries)) || c.Retried != 0 || c.Ejected != 0 {
				t.Errorf("counters %+v, want routed=%d retried=0 ejected=0", c, len(queries))
			}
			// Affinity must actually spread the cache, batch included: with 40
			// distinct queries over 3 backends, more than one backend holds
			// entries.
			spread := 0
			for _, b := range rt.backends() {
				bst, err := b.cl.Stats(ctx)
				if err != nil {
					t.Fatalf("backend Stats: %v", err)
				}
				if bst.Totals.Queries > 0 {
					spread++
				}
			}
			if spread < 2 {
				t.Errorf("affinity routed every query to %d backend(s), want ≥2", spread)
			}
		})
	}
}

// TestRouterFailover kills one backend mid-stream: every query must still
// be answered (the failed dispatches re-routed to the survivor), the dead
// backend ejected, and the router's health check stay green. The probe
// interval is an hour, so ejection can only happen through the failover path.
func TestRouterFailover(t *testing.T) {
	ds := testDataset(40, 73)
	queries := testWorkload(ds, 30, 74)
	ctx := context.Background()

	victim := startBackend(t, ds)
	survivor := startBackend(t, ds)
	tun := defaultTuning
	tun.probeInterval = time.Hour
	// Hair-trigger breaker: the first failed dispatch opens it, the
	// pre-breaker eject-on-first-failure behaviour.
	tun.errorBudget, tun.breakerMinSamples, tun.breakerCooldown = 0.01, 1, time.Hour
	rt := startTunedRouter(t, Options{Backends: []string{victim.Addr(), survivor.Addr()}}, tun)
	cl := server.NewClient(rt.Addr())

	for i, q := range queries[:10] {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("pre-failure Query %d: %v", i, err)
		}
	}

	// Kill the victim mid-stream (graceful shutdown closes its listener;
	// subsequent dispatches to it get connection refused).
	if err := victim.Shutdown(ctx); err != nil {
		t.Fatalf("victim Shutdown: %v", err)
	}

	for i, q := range queries[10:20] {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("post-failure Query %d: %v", 10+i, err)
		}
	}
	results, err := cl.QueryBatch(ctx, queries[20:])
	if err != nil {
		t.Fatalf("post-failure QueryBatch: %v", err)
	}
	if len(results) != len(queries)-20 {
		t.Fatalf("post-failure batch returned %d results, want %d", len(results), len(queries)-20)
	}

	if err := cl.Healthz(ctx); err != nil {
		t.Errorf("router unhealthy with one live backend: %v", err)
	}
	c := rt.Counters()
	if c.Ejected == 0 {
		t.Error("dead backend's breaker never opened")
	}
	if c.Retried == 0 {
		t.Error("no query was re-dispatched after the backend death")
	}
	if st := rt.backends()[0].br.State(); st != StateOpen {
		t.Errorf("dead backend's breaker is %v, want %v", st, StateOpen)
	}
}

// TestCanceledRequestDoesNotEject pins the failover classifier: a
// request whose own context dies mid-dispatch surfaces as a transport
// error, but must not eject the (healthy) backend — otherwise one
// disconnecting client could transiently mark the whole fleet down.
func TestCanceledRequestDoesNotEject(t *testing.T) {
	ds := testDataset(40, 77)
	queries := testWorkload(ds, 2, 78)
	b := startBackend(t, ds)
	tun := defaultTuning
	tun.probeInterval = time.Hour
	rt := startTunedRouter(t, Options{Backends: []string{b.Addr()}}, tun)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := routeOne(ctx, rt, wireBodies(t, queries[0])[0]); err == nil {
		t.Fatal("a dispatch with a dead context succeeded")
	}
	if st := rt.backends()[0].br.State(); st != StateClosed {
		t.Fatalf("a canceled request tripped a healthy backend's breaker (state %v)", st)
	}
	if c := rt.Counters(); c.Ejected != 0 || c.Retried != 0 {
		t.Fatalf("canceled request burned retries/ejections: %+v", c)
	}
	// The backend must still answer a live request.
	if err := routeOne(context.Background(), rt, wireBodies(t, queries[1])[0]); err != nil {
		t.Fatalf("backend unusable after canceled request: %v", err)
	}
}

// TestAddTotalsCoversEveryField pins the aggregation contract: every
// field of core.Totals is an integer kind addTotals can sum, and each
// one is actually summed — a counter added to core.Totals later cannot
// silently vanish from the fleet-wide /stats.
func TestAddTotalsCoversEveryField(t *testing.T) {
	var a, b core.Totals
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		f := av.Type().Field(i)
		if k := f.Type.Kind(); k != reflect.Int64 {
			t.Fatalf("core.Totals.%s has kind %v; addTotals only sums integer fields — extend it", f.Name, k)
		}
		av.Field(i).SetInt(int64(1000 + i))
		bv.Field(i).SetInt(int64(1 + i))
	}
	sum := addTotals(a, b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Int(), int64(1001+2*i); got != want {
			t.Errorf("core.Totals.%s: addTotals produced %d, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestRouterEjectReadmit exercises the prober's full cycle: a stopped
// backend is ejected by the health probe and readmitted when a new
// backend comes up at the same address.
func TestRouterEjectReadmit(t *testing.T) {
	ds := testDataset(40, 75)
	queries := testWorkload(ds, 10, 76)
	ctx := context.Background()

	keeper := startBackend(t, ds)
	flapper := startBackend(t, ds)
	flapAddr := flapper.Addr()
	tun := defaultTuning
	tun.probeInterval = 20 * time.Millisecond
	// Hair-trigger breaker with a short cooldown: one failed probe opens
	// it, and half-open probes keep checking for recovery.
	tun.errorBudget, tun.breakerMinSamples, tun.breakerCooldown = 0.01, 1, 20*time.Millisecond
	rt := startTunedRouter(t, Options{Backends: []string{keeper.Addr(), flapAddr}}, tun)
	cl := server.NewClient(rt.Addr())

	waitHealthy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if (rt.backends()[1].br.State() == StateClosed) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("prober never marked %s healthy=%v", flapAddr, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if err := flapper.Shutdown(ctx); err != nil {
		t.Fatalf("flapper Shutdown: %v", err)
	}
	waitHealthy(false)
	if rt.Counters().Ejected == 0 {
		t.Error("probe breaker-open not counted")
	}
	// One backend left is still a healthy fleet.
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("router Healthz with one backend ejected: %v", err)
	}
	for i, q := range queries {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("Query %d with ejected backend: %v", i, err)
		}
	}

	// A new daemon at the same address must be readmitted.
	c2 := core.New(ggsx.New(ds, ggsx.Options{}),
		core.Options{CacheSize: 20, WindowSize: 5})
	s2 := server.New(c2, server.Options{Addr: flapAddr})
	if err := s2.Start(); err != nil {
		t.Fatalf("restarting backend at %s: %v", flapAddr, err)
	}
	done := make(chan error, 1)
	go func() { done <- s2.Serve() }()
	defer func() {
		s2.Shutdown(ctx)
		<-done
	}()
	waitHealthy(true)
	for i, q := range queries {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("Query %d after readmission: %v", i, err)
		}
	}
}

// TestRouterAdminShutdownClosesFreshConnections: a connection that never
// carried a request holds up neither listener's graceful shutdown.
// net/http waits up to 5 s for such a connection's first request; a
// client pool's spare connection to the admin plane would otherwise hold
// Shutdown that long.
func TestRouterAdminShutdownClosesFreshConnections(t *testing.T) {
	b := startBackend(t, testDataset(40, 191))
	rt, err := New(Options{Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", Backends: []string{b.Addr()}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- rt.Serve() }()
	for _, addr := range []string{rt.AdminAddr(), rt.Addr()} {
		bare, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer bare.Close()
		// A listener accepts in arrival order and tracks each connection
		// before its next accept, so once a request dialed after the bare
		// connection is answered, the bare one is tracked too.
		res, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Shutdown took %v with a bare connection open on each plane, want under 1s", d)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}
