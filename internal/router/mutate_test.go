package router

import (
	"context"
	"errors"
	"testing"

	"graphcache/internal/faultproxy"
	"graphcache/internal/graph"
	"graphcache/internal/server"
)

func wireGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	text, err := graph.EncodeText([]*graph.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestRouterMutateFansOut drives add and remove mutations through the
// router's POST /mutate and checks every backend lands at the same
// epoch, duplicate sequence numbers replay idempotently fleet-wide, the
// fleet's convergence shows in /metrics and every backend's /stats, and
// the answers served afterwards match a cold cache over the same mutated
// dataset. It runs over two direct backends, and again with one backend
// behind a fault proxy severing 30% of its requests: there each mutation
// carries an explicit seq and is re-sent until the whole fleet acks it.
func TestRouterMutateFansOut(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dropRate float64
	}{{"direct", 0}, {"chaos", 0.3}} {
		t.Run(tc.name, func(t *testing.T) {
			dsA := testDataset(40, 81)
			dsB := testDataset(40, 81)
			bA := startBackend(t, dsA)
			bB := startBackend(t, dsB)
			addrB := bB.Addr()
			var fp *faultproxy.Proxy
			if tc.dropRate > 0 {
				// Seed 11's first draw severs, so the proxy's first request is lost.
				fp = startFaultProxy(t, bB.Addr(), 11)
				fp.SetDropRate(tc.dropRate)
				addrB = fp.Addr()
			}
			rt := startRouter(t, Options{Backends: []string{bA.Addr(), addrB}})
			cl := server.NewClient(rt.Addr())
			ctx := context.Background()
			queries := testWorkload(dsA, 15, 82) // sampled before mutations land

			// mutate sends req until the fleet acks it, counting the sends;
			// under chaos req names its seq, so a re-send is an idempotent
			// replay.
			sends := int64(0)
			mutate := func(req server.MutateRequest, seq int64) server.MutateResponse {
				t.Helper()
				if tc.dropRate > 0 {
					req.Seq = seq
				}
				for {
					sends++
					resp, err := cl.Mutate(ctx, req)
					if err == nil {
						return resp
					}
					if tc.dropRate == 0 || sends == 40 {
						t.Fatalf("mutate %s: %v", req.Op, err)
					}
				}
			}

			add := mutate(server.MutateRequest{Op: "add", Graphs: wireGraph(t, dsA.Graph(0).Clone())}, 1)
			if !add.Applied || add.Epoch != 1 || add.Seq != 1 {
				t.Fatalf("add response %+v, want applied at epoch 1 seq 1", add)
			}
			rm := mutate(server.MutateRequest{Op: "remove", IDs: []int32{2}}, 2)
			if !rm.Applied || rm.Epoch != 2 || rm.Seq != 2 {
				t.Fatalf("remove response %+v, want applied at epoch 2 seq 2", rm)
			}
			if dsA.Epoch() != 2 || dsB.Epoch() != 2 {
				t.Fatalf("backend epochs %d/%d, want 2/2", dsA.Epoch(), dsB.Epoch())
			}

			// Replaying an applied seq acks without re-applying on any backend.
			dup := mutate(server.MutateRequest{Op: "remove", IDs: []int32{3}, Seq: 2}, 2)
			if dup.Applied {
				t.Fatalf("duplicate seq replied applied: %+v", dup)
			}
			if !dsA.Alive(3) || !dsB.Alive(3) {
				t.Fatal("duplicate seq mutated a backend dataset")
			}

			// The router's fleet view converged, and the fan-outs are counted.
			topo := rt.Topology()
			if topo.FleetEpoch != 2 {
				t.Fatalf("fleet epoch %d, want 2", topo.FleetEpoch)
			}
			for _, b := range topo.Backends {
				if b.DatasetEpoch != 2 {
					t.Fatalf("backend %s epoch %d, want 2", b.Addr, b.DatasetEpoch)
				}
			}
			if c := rt.Counters(); c.Mutations != sends {
				t.Fatalf("Counters().Mutations = %d, want %d", c.Mutations, sends)
			}
			if fp != nil && fp.Counts().Dropped == 0 {
				t.Error("the fault proxy severed no request")
			}
			samples := scrape(t, "http://"+rt.Addr()+"/metrics")
			for _, addr := range []string{bA.Addr(), addrB} {
				if v, ok := sampleValue(samples, "graphcache_router_backend_dataset_epoch", map[string]string{"backend": addr}); !ok || v != 2 {
					t.Errorf("backend_dataset_epoch{backend=%s} = %v, %v; want 2", addr, v, ok)
				}
			}
			if v, ok := sampleValue(samples, "graphcache_router_fleet_epoch", nil); !ok || v != 2 {
				t.Errorf("fleet_epoch = %v, %v; want 2", v, ok)
			}
			if v, ok := sampleValue(samples, "graphcache_router_mutations_total", nil); !ok || v != float64(sends) {
				t.Errorf("mutations_total = %v, %v; want %d", v, ok, sends)
			}
			for _, b := range []*server.Server{bA, bB} {
				st, err := server.NewClient(b.Addr()).Stats(ctx)
				if err != nil {
					t.Fatalf("backend %s Stats: %v", b.Addr(), err)
				}
				if st.DatasetEpoch != 2 {
					t.Errorf("backend %s /stats dataset_epoch %d, want 2", b.Addr(), st.DatasetEpoch)
				}
			}

			// Answers through the router match a cold direct server over a
			// dataset mutated the same way.
			dsC := testDataset(40, 81)
			dsC.AddGraphs([]*graph.Graph{dsC.Graph(0).Clone()})
			dsC.RemoveGraphs([]int32{2})
			direct := startBackend(t, dsC)
			directCl := server.NewClient(direct.Addr())
			for i, q := range queries {
				got, err := cl.Query(ctx, q)
				if err != nil {
					t.Fatalf("router Query %d: %v", i, err)
				}
				want, err := directCl.Query(ctx, q)
				if err != nil {
					t.Fatalf("direct Query %d: %v", i, err)
				}
				if !eq(got.Answer, want.Answer) {
					t.Fatalf("query %d: router answered %v, cold cache %v", i, got.Answer, want.Answer)
				}
			}
		})
	}
}

// TestRouterMutateSeedsSeq restarts the mutation ingress over a fleet
// that has already consumed sequence numbers: the router must seed its
// counter from the backends' /stats and hand out the next number, never
// one the fleet would silently dedupe.
func TestRouterMutateSeedsSeq(t *testing.T) {
	dsA := testDataset(40, 91)
	dsB := testDataset(40, 91)
	bA := startBackend(t, dsA)
	bB := startBackend(t, dsB)
	ctx := context.Background()

	// The fleet consumed seq 5 before this router existed.
	for _, addr := range []string{bA.Addr(), bB.Addr()} {
		if _, err := server.NewClient(addr).Mutate(ctx, server.MutateRequest{Op: "remove", IDs: []int32{1}, Seq: 5}); err != nil {
			t.Fatalf("pre-mutating %s: %v", addr, err)
		}
	}

	rt := startRouter(t, Options{Backends: []string{bA.Addr(), bB.Addr()}})
	resp, err := server.NewClient(rt.Addr()).Mutate(ctx, server.MutateRequest{Op: "remove", IDs: []int32{2}})
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if !resp.Applied || resp.Seq != 6 || resp.Epoch != 2 {
		t.Fatalf("response %+v, want applied at seq 6 epoch 2", resp)
	}
	if dsA.Epoch() != 2 || dsB.Epoch() != 2 {
		t.Fatalf("backend epochs %d/%d, want 2/2", dsA.Epoch(), dsB.Epoch())
	}
}

// TestRouterDivertsLaggingBackend puts one backend an epoch behind the
// fleet and checks query assignment routes around it: a backend missing
// a mutation its peers have applied could serve stale answers, so it
// takes no queries until it catches up.
func TestRouterDivertsLaggingBackend(t *testing.T) {
	dsA := testDataset(40, 95)
	dsB := testDataset(40, 95)
	bA := startBackend(t, dsA)
	bB := startBackend(t, dsB)
	ctx := context.Background()

	// bB applies a mutation behind the router's back; bA lags.
	if _, err := server.NewClient(bB.Addr()).Mutate(ctx, server.MutateRequest{Op: "remove", IDs: []int32{0}, Seq: 1}); err != nil {
		t.Fatal(err)
	}

	rt := startRouter(t, Options{Backends: []string{bA.Addr(), bB.Addr()}})
	rt.probeAll() // health probes carry X-GC-Epoch; the router now sees bA lag

	cl := server.NewClient(rt.Addr())
	queries := testWorkload(dsA, 12, 96) // dsA still holds the unmutated base
	for i, q := range queries {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	stA, err := server.NewClient(bA.Addr()).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := server.NewClient(bB.Addr()).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Totals.Queries != 0 {
		t.Fatalf("lagging backend answered %d queries, want 0", stA.Totals.Queries)
	}
	if stB.Totals.Queries != int64(len(queries)) {
		t.Fatalf("current backend answered %d queries, want %d", stB.Totals.Queries, len(queries))
	}
}

// TestRouterJoinLandsAtFleetEpoch joins a cold backend into a mutated
// fleet: the warm-up's snapshot (v2: dataset delta, epoch, mutation
// seq) must land the joiner at the fleet epoch with its dedupe state
// intact, and subsequent mutations must reach it.
func TestRouterJoinLandsAtFleetEpoch(t *testing.T) {
	dsA := testDataset(40, 97)
	bA := startBackend(t, dsA)
	rt := startRouter(t, Options{Backends: []string{bA.Addr()}})
	cl := server.NewClient(rt.Addr())
	ctx := context.Background()

	if _, err := cl.Mutate(ctx, server.MutateRequest{Op: "remove", IDs: []int32{4}}); err != nil {
		t.Fatal(err)
	}

	dsB := testDataset(40, 97)
	bB := startBackend(t, dsB)
	join, err := rt.Join(ctx, bB.Addr())
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if join.Epoch != 1 {
		t.Fatalf("join epoch %d, want 1", join.Epoch)
	}
	if dsB.Epoch() != 1 || dsB.Alive(4) {
		t.Fatalf("joiner dataset epoch %d alive(4)=%v, want epoch 1 with 4 removed", dsB.Epoch(), dsB.Alive(4))
	}

	// The joiner deduped state came with the snapshot: replaying the
	// fleet's seq 1 does not re-apply.
	dup, err := server.NewClient(bB.Addr()).Mutate(ctx, server.MutateRequest{Op: "remove", IDs: []int32{5}, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Applied || !dsB.Alive(5) {
		t.Fatalf("joiner re-applied a pre-join seq: %+v", dup)
	}

	// The next fan-out reaches the joiner.
	rm, err := cl.Mutate(ctx, server.MutateRequest{Op: "remove", IDs: []int32{6}})
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Applied || rm.Seq != 2 || rm.Epoch != 2 {
		t.Fatalf("post-join mutation %+v, want applied at seq 2 epoch 2", rm)
	}
	if dsA.Epoch() != 2 || dsB.Epoch() != 2 {
		t.Fatalf("epochs %d/%d after post-join mutation, want 2/2", dsA.Epoch(), dsB.Epoch())
	}
}

// TestRouterMutateRejectsMalformed forwards a fleet-wide validation
// rejection as the backend's own 4xx, so the caller fixes the request
// instead of retrying it.
func TestRouterMutateRejectsMalformed(t *testing.T) {
	ds := testDataset(40, 99)
	b := startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b.Addr()}})
	ctx := context.Background()

	_, err := server.NewClient(rt.Addr()).Mutate(ctx, server.MutateRequest{Op: "shrink", IDs: []int32{1}})
	if err == nil {
		t.Fatal("malformed mutation accepted")
	}
	var se *server.StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("error %v, want a 400 StatusError", err)
	}
	if ds.Epoch() != 0 {
		t.Fatalf("rejected mutation advanced the epoch to %d", ds.Epoch())
	}
}
