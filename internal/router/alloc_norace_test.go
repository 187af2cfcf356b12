//go:build !race

package router

import (
	"context"
	"testing"

	"graphcache/internal/server"
)

// TestRoutedSingleAllocations pins what a single text /query costs the
// allocator through a router in front of two backends, all in this
// process, once every query is an exact hit (BenchmarkRouterHop's
// single_text): the client, both tiers' HTTP handling and the cache's
// lookup together stay at or under 170 allocations. A lone group is
// dispatched on the calling goroutine with no fan-out state, so the
// router adds no more to a single than its frame and its backend's reply.
// Not under -race: the detector's own bookkeeping allocates.
func TestRoutedSingleAllocations(t *testing.T) {
	ds := testDataset(60, 301)
	queries := testWorkload(ds, 32, 302)
	b1, b2 := startBackend(t, ds), startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b1.Addr(), b2.Addr()}})
	cl := server.NewClient(rt.Addr())
	ctx := context.Background()
	next := 0
	query := func() {
		if _, err := cl.Query(ctx, queries[next%len(queries)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 4 * len(queries) { // every query cached: the rest are exact hits
		query()
	}
	const ceiling = 170
	if allocs := testing.AllocsPerRun(10*len(queries), query); allocs > ceiling {
		t.Errorf("a routed single allocates %.0f times, want ≤ %d", allocs, ceiling)
	} else {
		t.Logf("a routed single allocates %.0f times", allocs)
	}
}
