package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// gateMethod parks every Verify call of the gated queries on gate, and
// marks each gated query parked on its first call. A query crosses the
// wire, so the server verifies a decoded copy: the gate matches queries by
// IsoKey, and the tests gate queries whose keys no other query shares.
// It is how these tests hold a run in verification for exactly as long as
// they need, with no timer involved.
type gateMethod struct {
	method.Method
	gate   chan struct{}
	parked map[uint64]chan struct{} // by IsoKey; closed when that query first parks
	once   map[uint64]*sync.Once
	opened sync.Once
}

func newGateMethod(m method.Method, gated ...*graph.Graph) *gateMethod {
	gm := &gateMethod{Method: m, gate: make(chan struct{}),
		parked: map[uint64]chan struct{}{}, once: map[uint64]*sync.Once{}}
	for _, q := range gated {
		gm.parked[q.IsoKey()] = make(chan struct{})
		gm.once[q.IsoKey()] = new(sync.Once)
	}
	return gm
}

func (m *gateMethod) Verify(q *graph.Graph, id int32) bool {
	k := q.IsoKey()
	if ch, ok := m.parked[k]; ok {
		m.once[k].Do(func() { close(ch) })
		<-m.gate
	}
	return m.Method.Verify(q, id)
}

// release opens the gate; later calls do nothing. Tests also register it
// as a cleanup, so a failed test does not leave its server's handlers
// parked forever.
func (m *gateMethod) release() { m.opened.Do(func() { close(m.gate) }) }

// waitParked blocks until a Verify call of q has parked on the gate.
func (m *gateMethod) waitParked(t *testing.T, q *graph.Graph) {
	t.Helper()
	select {
	case <-m.parked[q.IsoKey()]:
	case <-time.After(10 * time.Second):
		t.Fatal("the gated query never reached verification")
	}
}

// distinctQueries returns n Type A queries over ds whose IsoKeys differ
// pairwise, so gating one never gates a repeat of it.
func distinctQueries(ds *dataset.Dataset, n int, seed int64) []*graph.Graph {
	seen := map[uint64]bool{}
	var out []*graph.Graph
	for _, q := range testWorkload(ds, 8*n, seed) {
		if k := q.IsoKey(); !seen[k] && len(out) < n {
			seen[k] = true
			out = append(out, q)
		}
	}
	if len(out) < n {
		panic("workload too repetitive for distinctQueries")
	}
	return out
}

// inFlight is one Client.Query call running on a goroutine of its own.
type inFlight struct {
	resp QueryResponse
	err  error
	ok   chan struct{} // closed once resp and err are set
}

func goQuery(ctx context.Context, cl *Client, q *graph.Graph) *inFlight {
	a := &inFlight{ok: make(chan struct{})}
	go func() {
		a.resp, a.err = cl.Query(ctx, q)
		close(a.ok)
	}()
	return a
}

// wait blocks until the call returned, failing the test after 10 s.
func (a *inFlight) wait(t *testing.T, what string) {
	t.Helper()
	select {
	case <-a.ok:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// answers waits for the call and checks its answer against the bare method.
func (a *inFlight) answers(t *testing.T, what string, base method.Method, q *graph.Graph) {
	t.Helper()
	a.wait(t, what)
	if a.err != nil {
		t.Fatalf("%s: %v", what, a.err)
	}
	if want := method.Answer(base, q); !eq(a.resp.Answer, want) {
		t.Errorf("%s: served answer %v != local %v", what, a.resp.Answer, want)
	}
}

// held reports whether the call is still in flight.
func (a *inFlight) held() bool {
	select {
	case <-a.ok:
		return false
	default:
		return true
	}
}

// tap is one request as the server saw it: its context, and a channel
// closed once the server's handler returned.
type tap struct {
	ctx      context.Context
	returned chan struct{}
}

// serveTapped serves s through httptest and hands the test each request's
// tap, so it can wait for the server to see a client leave and for the
// handler to return.
func serveTapped(t *testing.T, s *Server) (string, <-chan tap) {
	t.Helper()
	taps := make(chan tap, 16) // one per request; no test sends more than a few
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tp := tap{ctx: r.Context(), returned: make(chan struct{})}
		taps <- tp
		defer close(tp.returned)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, taps
}

// await blocks until ch is closed, failing the test after 10 s.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("never saw: %s", what)
	}
}

// TestConcurrentSinglesRunSideBySide: each /query is a run of the pipeline
// on its own request, so singles that arrive while another is held in
// verification are answered while it stays held, each as a run of one:
// none waits for the held run, none is folded into a batch with another.
func TestConcurrentSinglesRunSideBySide(t *testing.T) {
	ds := testDataset(30, 61)
	queries := distinctQueries(ds, 5, 62)
	base := method.NewVF2Plus(ds) // no index: every query has candidates to verify
	gm := newGateMethod(base, queries[0])
	s := startServer(t, core.New(gm, core.Options{CacheSize: 20, WindowSize: 1}), Options{})
	t.Cleanup(gm.release)
	cl := NewClient(s.Addr())
	ctx := context.Background()

	first := goQuery(ctx, cl, queries[0])
	gm.waitParked(t, queries[0])
	var beside []*inFlight
	for _, q := range queries[1:] {
		beside = append(beside, goQuery(ctx, cl, q))
	}
	for i, a := range beside {
		a.answers(t, "single beside a held run", base, queries[1+i])
	}
	if !first.held() {
		t.Fatal("the held query returned through a closed gate")
	}
	if got := s.met.queriesBatch.Value(); got != 0 {
		t.Errorf("queries_total{path=batched} = %v, want 0: a single ran in a batch", got)
	}
	if got := s.cache.Totals().Batches; got != 0 {
		t.Errorf("the cache ran %d multi-query batches, want 0", got)
	}
	gm.release()
	first.answers(t, "held query", base, queries[0])
	n := float64(len(queries))
	if c, sum := s.met.batchSize.Count(), s.met.batchSize.Sum(); float64(c) != n || sum != n {
		t.Errorf("batch_size observed %d runs summing to %v, want %v runs of one", c, sum, n)
	}
}

// TestCoalescerLoneWaiterCancellation: a lone client that leaves while its
// query is parked in verification returns at once; once the server sees it
// go, the run abandons its remaining sub-iso tests, the handler returns,
// the cancellation is counted, and the query leaves no trace in the cache.
// The name dates from the request coalescer; a /query is now a run of its
// own on its request, and the same assertions hold for it.
func TestCoalescerLoneWaiterCancellation(t *testing.T) {
	clientLeavesMidVerification(t, Options{}, 65, 66)
}

// TestCoalescerMaxBatchOneAbandons: the deprecated MaxBatch option is
// still accepted and changes nothing, so under MaxBatch 1 a client that
// leaves mid-verification is abandoned and counted exactly as without it.
func TestCoalescerMaxBatchOneAbandons(t *testing.T) {
	clientLeavesMidVerification(t, Options{MaxBatch: 1}, 69, 70)
}

// clientLeavesMidVerification serves one /query under opts, cancels the
// client once its query is parked in verification, and checks that the
// client returns at once and the run is abandoned without a trace.
func clientLeavesMidVerification(t *testing.T, opts Options, dsSeed, qSeed int64) {
	t.Helper()
	ds := testDataset(40, dsSeed)
	q := testWorkload(ds, 1, qSeed)[0]
	gm := newGateMethod(method.NewVF2Plus(ds), q) // no index: every graph is a candidate
	// A window of one: a query that reached the window would be cached.
	// One verification worker, so only the first chunk of tests is in
	// flight when the client leaves.
	cache := core.New(gm, core.Options{CacheSize: 20, WindowSize: 1, VerifyConcurrency: 1})
	s := New(cache, opts)
	addr, taps := serveTapped(t, s)
	t.Cleanup(gm.release)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := goQuery(ctx, NewClient(addr), q)
	req := <-taps
	gm.waitParked(t, q)
	cancel()
	gone.wait(t, "departed client") // its run is still parked on the gate
	if !errors.Is(gone.err, context.Canceled) {
		t.Errorf("client returned %v, want context.Canceled", gone.err)
	}
	await(t, req.ctx.Done(), "the server notice the client leave")
	gm.release()
	await(t, req.returned, "the handler return")

	if got := s.met.streamAbandoned.Value(); got == 0 {
		t.Error("stream_abandoned_verifications_total = 0: the departed client's run verified to the end")
	}
	if got := s.met.streamCancelled.Value(); got != 1 {
		t.Errorf("stream_cancelled_total = %v, want 1", got)
	}
	cache.Flush()
	if tot := cache.Totals(); tot.Queries != 0 || len(cache.CachedSerials()) != 0 {
		t.Errorf("abandoned query left a trace: %d queries in totals, %d cached", tot.Queries, len(cache.CachedSerials()))
	}
}

// TestSinglesDeadClientCostsNothing pins context propagation through
// /query beside other work: a client killed while its query is in flight
// next to a held run returns at once, and its run is abandoned before it
// reaches the cache's books, while a live single beside both is answered —
// a killed client cancels its work, not just the response write. A request
// whose context is already dead starts no run at all.
func TestSinglesDeadClientCostsNothing(t *testing.T) {
	ds := testDataset(30, 93)
	queries := distinctQueries(ds, 3, 94)
	base := method.NewVF2Plus(ds)
	gm := newGateMethod(base, queries[0], queries[1])
	// One verification worker per run, so a run parked in verification
	// has tests left to skip when its client dies.
	cache := core.New(gm, core.Options{CacheSize: 20, WindowSize: 1, VerifyConcurrency: 1})
	s := New(cache, Options{})
	addr, taps := serveTapped(t, s)
	t.Cleanup(gm.release)
	cl := NewClient(addr)

	holder := goQuery(context.Background(), cl, queries[0])
	<-taps
	gm.waitParked(t, queries[0])
	ctx, cancel := context.WithCancel(context.Background())
	dead := goQuery(ctx, cl, queries[1])
	req := <-taps
	gm.waitParked(t, queries[1])
	cancel()
	dead.wait(t, "killed client") // its run is still parked on the gate
	if !errors.Is(dead.err, context.Canceled) {
		t.Fatalf("killed client returned %v, want context.Canceled", dead.err)
	}
	await(t, req.ctx.Done(), "the server notice the killed client")

	live := goQuery(context.Background(), cl, queries[2])
	live.answers(t, "live single", base, queries[2])
	gm.release()
	holder.answers(t, "holder", base, queries[0])
	await(t, req.returned, "the killed client's handler return")
	if got := cache.Totals().Queries; got != 2 {
		t.Errorf("cache executed %d queries, want 2 (the holder and the live single, not the killed one)", got)
	}

	// A request whose context is already dead never runs.
	payload, ct, err := cl.encodeGraphsPayload(queries[1:2], true)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(payload)).WithContext(ctx)
	r.Header.Set("Content-Type", ct)
	runs := s.met.batchSize.Count()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, r)
	if got := s.met.batchSize.Count(); got != runs {
		t.Errorf("a request with a dead context started a run (%d runs, want %d)", got, runs)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("a request with a dead context was answered: %q", rec.Body.String())
	}
}

// TestSinglesBurstRace hammers one server with concurrent singles, so
// runs of one overlap in every stage of the pipeline and the window
// passes, run on whichever request fills a window, race them. Under -race this is the single-query
// path's memory-model check; every client must get its own query's answer.
func TestSinglesBurstRace(t *testing.T) {
	const (
		goroutines = 8
		perG       = 30
	)
	ds := testDataset(30, 63)
	queries := testWorkload(ds, goroutines*perG, 64)
	base := method.NewVF2Plus(ds)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = method.Answer(base, q)
	}

	cache := core.New(ggsx.New(ds, ggsx.Options{}),
		core.Options{CacheSize: 20, WindowSize: 5})
	s := startServer(t, cache, Options{})
	cl := NewClient(s.Addr())

	var wg sync.WaitGroup
	var mu sync.Mutex
	mismatches := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				i := g*perG + k
				resp, err := cl.Query(context.Background(), queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					continue
				}
				if !eq(resp.Answer, want[i]) {
					mu.Lock()
					mismatches++
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d of %d concurrent singles got an answer not their own", mismatches, len(queries))
	}
}
