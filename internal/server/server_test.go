package server

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
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

func newTestCache(ds *dataset.Dataset) *core.Cache {
	return core.New(ggsx.New(ds, ggsx.Options{}), core.Options{CacheSize: 20, WindowSize: 5})
}

// startServer runs a Server through its real daemon lifecycle — Start
// (snapshot load + bind), Serve on a goroutine — and tears it down with
// Shutdown (drain + snapshot write), exactly what gcserved wires SIGTERM
// to.
func startServer(t *testing.T, c *core.Cache, opts Options) *Server {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	s := New(c, opts)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s
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

// TestServerAnswersMatchLocal drives every endpoint through a live
// listener: single queries, one batch, stats and
// the health check. Answers must equal the wrapped method's baseline.
func TestServerAnswersMatchLocal(t *testing.T) {
	ds := testDataset(40, 41)
	queries := testWorkload(ds, 40, 42)
	base := method.NewVF2Plus(ds)
	s := startServer(t, newTestCache(ds), Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	for i, q := range queries[:20] {
		resp, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
		if want := method.Answer(base, q); !eq(resp.Answer, want) {
			t.Fatalf("query %d: served answer %v != local %v", i, resp.Answer, want)
		}
	}
	results, err := cl.QueryBatch(ctx, queries[20:])
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	for i, res := range results {
		if want := method.Answer(base, queries[20+i]); !eq(res.Answer, want) {
			t.Fatalf("batched query %d: served answer %v != local %v", 20+i, res.Answer, want)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Totals.Queries != int64(len(queries)) {
		t.Errorf("Stats totals report %d queries, want %d", st.Totals.Queries, len(queries))
	}
	if st.Method == "" || st.Mode == "" {
		t.Errorf("Stats missing method/mode: %+v", st)
	}
}

// TestServerRejectsMalformedRequests pins the error surface: bad JSON,
// empty payloads, multi-graph payloads on /query and wrong methods all
// come back as clean 4xx JSON errors, not 500s or hangs.
func TestServerRejectsMalformedRequests(t *testing.T) {
	ds := testDataset(10, 43)
	s := New(newTestCache(ds), Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		res, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if got := post("/query", "{nonsense"); got != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", got)
	}
	if got := post("/query", `{"graph": "v 0 1\n"}`); got != http.StatusBadRequest {
		t.Errorf("invalid graph text: status %d, want 400", got)
	}
	if got := post("/query", `{"graph": ""}`); got != http.StatusBadRequest {
		t.Errorf("empty graph payload: status %d, want 400", got)
	}
	if got := post("/query", `{"graph": "t # 0\nv 0 1\nt # 1\nv 0 2\n"}`); got != http.StatusBadRequest {
		t.Errorf("two graphs on /query: status %d, want 400", got)
	}
	if got := post("/querybatch", `{"graphs": ""}`); got != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", got)
	}
	res, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatalf("GET /query: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", res.StatusCode)
	}
}

// TestSnapshotLifecycle is the daemon persistence test: serve queries,
// shut down (which writes the snapshot), start a fresh daemon over the
// same path and verify the cache contents — and therefore hits — survive
// the restart.
func TestSnapshotLifecycle(t *testing.T) {
	ds := testDataset(40, 45)
	queries := testWorkload(ds, 30, 46)
	snap := filepath.Join(t.TempDir(), "cache.gcsnapshot")
	ctx := context.Background()

	// First daemon: cold cache, warm it, SIGTERM-equivalent shutdown.
	{
		s := New(newTestCache(ds), Options{Addr: "127.0.0.1:0", SnapshotPath: snap})
		if err := s.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Serve() }()
		cl := NewClient(s.Addr())
		if _, err := cl.QueryBatch(ctx, queries); err != nil {
			t.Fatalf("warm QueryBatch: %v", err)
		}
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("shutdown did not write the snapshot: %v", err)
	}

	// Second daemon: loads the snapshot on Start; cached queries must be
	// present and repeated queries must shortcut as exact hits.
	c2 := newTestCache(ds)
	s2 := startServer(t, c2, Options{SnapshotPath: snap})
	cl := NewClient(s2.Addr())
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats after restart: %v", err)
	}
	if st.Cached == 0 {
		t.Fatal("no cached queries survived the restart")
	}
	base := method.NewVF2Plus(ds)
	hits := 0
	for i, q := range queries {
		resp, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatalf("post-restart Query %d: %v", i, err)
		}
		if want := method.Answer(base, q); !eq(resp.Answer, want) {
			t.Fatalf("post-restart query %d: answer %v != local %v", i, resp.Answer, want)
		}
		if resp.Stats.ExactHit {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no exact-match hits against the restored cache")
	}
}

// TestShutdownClosesUnservedListener is the regression test for the
// Start→Shutdown socket leak: http.Server.Shutdown only closes listeners
// registered by Serve, so a server that was started but never served
// (error paths, tests) used to leave its socket bound. After Shutdown the
// address must be immediately re-bindable.
func TestShutdownClosesUnservedListener(t *testing.T) {
	ds := testDataset(10, 53)
	s := New(newTestCache(ds), Options{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := s.Addr()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener leaked after Serve-less Shutdown: cannot re-bind %s: %v", addr, err)
	}
	lis.Close()
}

// TestSnapshotWriteSyncsBeforeRename is the regression test for snapshot
// durability: the atomic-replace claim is only crash-safe if the temp
// file reaches stable storage before the rename installs its name.
func TestSnapshotWriteSyncsBeforeRename(t *testing.T) {
	ds := testDataset(30, 54)
	queries := testWorkload(ds, 10, 55)
	c := newTestCache(ds)
	for _, q := range queries {
		c.Query(q)
	}
	c.Flush()

	synced := 0
	oldSync := fsync
	fsync = func(f *os.File) error { synced++; return oldSync(f) }
	defer func() { fsync = oldSync }()

	path := filepath.Join(t.TempDir(), "cache.gcsnapshot")
	if err := writeSnapshotFile(c, path); err != nil {
		t.Fatalf("writeSnapshotFile: %v", err)
	}
	if synced == 0 {
		t.Fatal("snapshot temp file was renamed into place without an fsync")
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot missing or empty after write: %v", err)
	}
	// And the installed file must pass its integrity trailer and load back.
	c2 := newTestCache(ds)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := splitChecked(data)
	if err != nil {
		t.Fatalf("splitChecked of synced snapshot: %v", err)
	}
	if err := c2.ReadSnapshot(bytes.NewReader(body)); err != nil {
		t.Fatalf("ReadSnapshot of synced snapshot: %v", err)
	}
	if len(c2.CachedSerials()) == 0 {
		t.Fatal("synced snapshot restored no cached queries")
	}
}

// TestConcurrentClients hammers one server from many goroutines; with
// -race this is the serving path's concurrency soundness check. A reply
// is written after its run's bookkeeping, so the totals count every
// query the moment the last answer is in.
func TestConcurrentClients(t *testing.T) {
	const clients = 8
	ds := testDataset(40, 47)
	queries := testWorkload(ds, 120, 48)
	base := method.NewVF2Plus(ds)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = method.Answer(base, q)
	}

	c := core.New(ggsx.New(ds, ggsx.Options{}),
		core.Options{CacheSize: 20, WindowSize: 5})
	s := startServer(t, c, Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	var wg sync.WaitGroup
	var mu sync.Mutex
	mismatches := 0
	chunk := (len(queries) + clients - 1) / clients
	for w := 0; w < clients; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				resp, err := cl.Query(ctx, queries[i])
				if err != nil {
					t.Errorf("Query %d: %v", i, err)
					return
				}
				if !eq(resp.Answer, want[i]) {
					mu.Lock()
					mismatches++
					mu.Unlock()
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d of %d concurrent served answers diverged from the baseline", mismatches, len(queries))
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Totals.Queries != int64(len(queries)) {
		t.Errorf("totals report %d queries, want %d", st.Totals.Queries, len(queries))
	}
}
