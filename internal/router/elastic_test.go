package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// adminDo runs one admin-API request and decodes the JSON reply into out,
// asserting the expected status.
func adminDo(t *testing.T, method, url string, body, out any, wantStatus int) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(payload)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer res.Body.Close()
	if res.StatusCode != wantStatus {
		var e server.ErrorResponse
		json.NewDecoder(res.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (%s), want %d", method, url, res.StatusCode, e.Error, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding reply: %v", method, url, err)
		}
	}
}

// TestElasticJoinAndDrain is the live scale-up/scale-down drill: a fleet
// of two serves a workload, a third backend joins through the admin API
// (warm-then-serve: it must ingest a peer snapshot before its first
// dispatch), answers stay byte-identical, and draining a backend removes
// it without failing a single request.
func TestElasticJoinAndDrain(t *testing.T) {
	ds := testDataset(40, 91)
	queries := testWorkload(ds, 40, 92)
	ctx := context.Background()

	// Direct answers to compare against.
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

	b1 := startBackend(t, ds)
	b2 := startBackend(t, ds)
	rt := startRouter(t, Options{
		Backends:  []string{b1.Addr(), b2.Addr()},
		AdminAddr: "127.0.0.1:0",
	})
	if rt.AdminAddr() == "" {
		t.Fatal("router reports no admin address")
	}
	admin := "http://" + rt.AdminAddr()
	cl := server.NewClient(rt.Addr())

	// Warm the fleet: every query answered once, caches populated.
	for i, q := range queries {
		resp, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatalf("Query %d before join: %v", i, err)
		}
		if !eq(resp.Answer, want[i]) {
			t.Fatalf("query %d before join: answer %v != direct %v", i, resp.Answer, want[i])
		}
	}
	// The ring depends on the backends' ephemeral ports, so affinity can
	// route fewer misses to one backend than a window holds, and an idle
	// fleet's warm source is its first backend. Query both directly too, so
	// whichever peer the join picks has filled windows to ship.
	for _, b := range []*server.Server{b1, b2} {
		if _, err := server.NewClient(b.Addr()).QueryBatch(ctx, queries); err != nil {
			t.Fatalf("direct QueryBatch on %s: %v", b.Addr(), err)
		}
	}

	// Join a third backend. It must be warmed from a peer before serving.
	b3 := startBackend(t, ds)
	var joined JoinResponse
	adminDo(t, http.MethodPost, admin+"/backends", JoinRequest{Addr: b3.Addr()}, &joined, http.StatusOK)
	if joined.Addr != b3.Addr() {
		t.Errorf("join reply addr %q, want %q", joined.Addr, b3.Addr())
	}
	if joined.WarmedFrom != b1.Addr() && joined.WarmedFrom != b2.Addr() {
		t.Errorf("joiner warmed from %q, want one of the two peers", joined.WarmedFrom)
	}
	if joined.Cached == 0 {
		t.Error("joiner ingested an empty snapshot — it would serve its first queries cold")
	}
	st3, err := server.NewClient(b3.Addr()).Stats(ctx)
	if err != nil {
		t.Fatalf("joiner Stats: %v", err)
	}
	if st3.Warmed != 1 {
		t.Errorf("joiner reports %d warm-ups, want 1", st3.Warmed)
	}
	if st3.Cached != joined.Cached {
		t.Errorf("joiner caches %d queries, join reported %d", st3.Cached, joined.Cached)
	}

	var topo TopologyResponse
	adminDo(t, http.MethodGet, admin+"/topology", nil, &topo, http.StatusOK)
	if len(topo.Backends) != 3 {
		t.Fatalf("topology has %d backends after join, want 3", len(topo.Backends))
	}

	// Joining the same address again must be refused, not duplicated.
	adminDo(t, http.MethodPost, admin+"/backends", JoinRequest{Addr: b3.Addr()}, nil, http.StatusConflict)

	// The grown fleet must answer the whole workload identically, with the
	// new backend taking its ring share.
	for i, q := range queries {
		resp, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatalf("Query %d after join: %v", i, err)
		}
		if !eq(resp.Answer, want[i]) {
			t.Fatalf("query %d after join: answer %v != direct %v", i, resp.Answer, want[i])
		}
	}

	// Drain b1 while the workload keeps flowing: zero failures allowed.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w*7+i)%len(queries)]
				if _, err := cl.Query(ctx, q); err != nil {
					errc <- fmt.Errorf("query during drain: %w", err)
					return
				}
			}
		}(w)
	}
	adminDo(t, http.MethodDelete, admin+"/backends/"+b1.Addr(), nil, nil, http.StatusOK)
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	adminDo(t, http.MethodGet, admin+"/topology", nil, &topo, http.StatusOK)
	if len(topo.Backends) != 2 {
		t.Fatalf("topology has %d backends after drain, want 2", len(topo.Backends))
	}
	for _, b := range topo.Backends {
		if b.Addr == b1.Addr() {
			t.Errorf("drained backend %s still in the topology", b.Addr)
		}
	}

	// Draining an unknown backend is 404; the shrunken fleet still answers.
	adminDo(t, http.MethodDelete, admin+"/backends/"+b1.Addr(), nil, nil, http.StatusNotFound)
	for i, q := range queries[:10] {
		resp, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatalf("Query %d after drain: %v", i, err)
		}
		if !eq(resp.Answer, want[i]) {
			t.Fatalf("query %d after drain: answer %v != direct %v", i, resp.Answer, want[i])
		}
	}
}

// TestElasticDrainLastRefused: the admin API refuses to drain the fleet
// down to nothing.
func TestElasticDrainLastRefused(t *testing.T) {
	ds := testDataset(20, 93)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{
		Backends:  []string{b.Addr()},
		AdminAddr: "127.0.0.1:0",
	})
	admin := "http://" + rt.AdminAddr()
	adminDo(t, http.MethodDelete, admin+"/backends/"+b.Addr(), nil, nil, http.StatusConflict)

	var topo TopologyResponse
	adminDo(t, http.MethodGet, admin+"/topology", nil, &topo, http.StatusOK)
	if len(topo.Backends) != 1 {
		t.Fatalf("topology has %d backends, want the refused drain to leave 1", len(topo.Backends))
	}
}

// TestElasticJoinDeadBackendRefused: a joiner that fails its health check
// never reaches the ring.
func TestElasticJoinDeadBackendRefused(t *testing.T) {
	ds := testDataset(20, 94)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{
		Backends:  []string{b.Addr()},
		AdminAddr: "127.0.0.1:0",
	})
	admin := "http://" + rt.AdminAddr()
	// 127.0.0.1:1 — reserved port, nothing listens there.
	adminDo(t, http.MethodPost, admin+"/backends", JoinRequest{Addr: "127.0.0.1:1"}, nil, http.StatusBadGateway)

	var topo TopologyResponse
	adminDo(t, http.MethodGet, admin+"/topology", nil, &topo, http.StatusOK)
	if len(topo.Backends) != 1 {
		t.Fatalf("topology has %d backends, want the refused join to leave 1", len(topo.Backends))
	}
}

// TestBatchesFollowAffinityThroughJoinAndDrain drives concurrent
// /querybatch load through a stable
// fleet, a join, a drain and the shrunk fleet. Every answer must equal a
// direct backend's. While the topology holds still and nothing is
// saturated, every batched query must land on its ring home: each
// backend's count of queries run equals the number tp.assign gives it.
func TestBatchesFollowAffinityThroughJoinAndDrain(t *testing.T) {
	ds := testDataset(40, 97)
	queries := testWorkload(ds, 48, 98)
	ctx := context.Background()

	direct := server.NewClient(startBackend(t, ds).Addr())
	var want [][]int32
	// answer appends the direct backend's answers to qs to want.
	answer := func(qs []*graph.Graph) {
		t.Helper()
		rs, err := direct.QueryBatch(ctx, qs)
		if err != nil {
			t.Fatalf("direct QueryBatch: %v", err)
		}
		for _, r := range rs {
			want = append(want, r.Answer)
		}
	}
	answer(queries)

	b1, b2, b3 := startBackend(t, ds), startBackend(t, ds), startBackend(t, ds)
	rt := startRouter(t, Options{
		Backends:  []string{b1.Addr(), b2.Addr()},
		AdminAddr: "127.0.0.1:0",
	})
	admin := "http://" + rt.AdminAddr()
	cl := server.NewClient(rt.Addr())

	// batch returns worker w's r-th batch: eight consecutive entries of
	// pool, a list of request indices, from a worker- and round-dependent
	// offset.
	batch := func(pool []int, w, r int) []int {
		idxs := make([]int, 8)
		for k := range idxs {
			idxs[k] = pool[(w*11+r*7+k)%len(pool)]
		}
		return idxs
	}
	every := make([]int, len(queries))
	for i := range every {
		every[i] = i
	}
	// send runs one batch and checks its answers.
	send := func(idxs []int) error {
		qs := make([]*graph.Graph, len(idxs))
		for k, i := range idxs {
			qs[k] = queries[i]
		}
		got, err := answersVia(ctx, cl, "/querybatch", qs)
		if err != nil {
			return fmt.Errorf("/querybatch: %w", err)
		}
		for k, i := range idxs {
			if !eq(got[k], want[i]) {
				return fmt.Errorf("/querybatch query %d: routed answer %v != direct %v", i, got[k], want[i])
			}
		}
		return nil
	}
	// load runs four workers, drawing their batches from pool, until stop
	// is closed, or for rounds rounds each when stop is nil, and returns
	// every batch it sent; sentN counts them as they complete.
	var sentN atomic.Int64
	load := func(pool []int, rounds int, stop <-chan struct{}) [][]int {
		var (
			mu   sync.Mutex
			sent [][]int
			wg   sync.WaitGroup
		)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; stop != nil || r < rounds; r++ {
					if stop != nil {
						select {
						case <-stop:
							return
						default:
						}
					}
					idxs := batch(pool, w, r)
					if err := send(idxs); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					sent = append(sent, idxs)
					mu.Unlock()
					sentN.Add(1)
				}
			}(w)
		}
		wg.Wait()
		return sent
	}
	queriesRun := func() map[string]int64 {
		n := make(map[string]int64)
		for _, b := range rt.backends() {
			st, err := b.cl.Stats(ctx)
			if err != nil {
				t.Fatalf("backend %s Stats: %v", b.addr, err)
			}
			n[b.addr] = st.Totals.Queries
		}
		return n
	}
	// checkHomes runs a fixed load on the current topology and asserts
	// that each backend ran exactly the queries tp.assign sends it. Ring
	// placement follows the backends' ports, so the load's queries are
	// chosen from the live ring: while some backend is home to none of
	// the queries, more are drawn (and answered directly), and the load's
	// pool then takes the queries homed on each backend in turn.
	checkHomes := func(phase string) {
		t.Helper()
		tp := rt.topo.Load()
		homed := make(map[*backend][]int)
		for i, seed := 0, int64(99); ; seed++ {
			for ; i < len(queries); i++ {
				b := tp.assign(wireBodies(t, queries[i])[0].Key)
				homed[b] = append(homed[b], i)
			}
			if len(homed) == len(tp.bs) {
				break
			}
			if seed == 199 {
				t.Fatalf("%s: %d backends, %d of them home to some of %d queries", phase, len(tp.bs), len(homed), len(queries))
			}
			more := testWorkload(ds, 48, seed)
			answer(more)
			queries = append(queries, more...)
		}
		var pool []int
		for turn := 0; len(pool) < len(every); turn++ {
			for _, b := range tp.bs {
				pool = append(pool, homed[b][turn%len(homed[b])])
			}
		}
		before := queriesRun()
		sent := load(pool, 6, nil)
		wantRun := make(map[string]int64)
		total := int64(0)
		for _, idxs := range sent {
			for _, i := range idxs {
				wantRun[tp.assign(wireBodies(t, queries[i])[0].Key).addr]++
				total++
			}
		}
		// A backend's totals take a batch in before its reply goes out.
		got := queriesRun()
		for _, b := range tp.bs {
			if run := got[b.addr] - before[b.addr]; run != wantRun[b.addr] {
				t.Errorf("%s: backend %s ran %d batched queries, its ring home share is %d", phase, b.addr, run, wantRun[b.addr])
			}
			if wantRun[b.addr] == 0 {
				t.Errorf("%s: backend %s is home to none of the %d queries; the check cannot tell a split batch from a whole one", phase, b.addr, total)
			}
		}
	}

	checkHomes("before the join")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		load(every, 0, stop)
	}()
	// Each topology change lands while batches are flowing on both sides
	// of it.
	flowing := func(what string) {
		n := sentN.Load()
		waitFor(t, "batches "+what, func() bool { return sentN.Load() >= n+8 })
	}
	flowing("before the join")
	adminDo(t, http.MethodPost, admin+"/backends", JoinRequest{Addr: b3.Addr()}, nil, http.StatusOK)
	flowing("between the join and the drain")
	adminDo(t, http.MethodDelete, admin+"/backends/"+b1.Addr(), nil, nil, http.StatusOK)
	flowing("after the drain")
	close(stop)
	<-done

	checkHomes("after the drain")
	if c := rt.Counters(); c.Retried != 0 || c.Ejected != 0 {
		t.Errorf("counters %+v: a join and a drain must not cost a retry or an ejection", c)
	}
}
