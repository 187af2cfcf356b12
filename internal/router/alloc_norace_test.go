//go:build !race

package router

import (
	"context"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// TestRoutedSingleAllocations pins what a single text /query costs the
// allocator through BenchmarkRouterHop's fleet once every query is an
// exact hit (its single_text): the client, both tiers' HTTP handling and
// the cache's lookup together stay at or under 168 allocations. A lone
// group is dispatched on the calling goroutine with no fan-out state, so
// the router adds no more to a single than its frame and its backend's
// reply. Not under -race: the detector's own bookkeeping allocates.
func TestRoutedSingleAllocations(t *testing.T) {
	routedAllocations(t, "a routed single", 168, server.ClientOptions{},
		func(ctx context.Context, cl *server.Client, qs []*graph.Graph, i int) error {
			_, err := cl.Query(ctx, qs[i%len(qs)])
			return err
		})
}

// TestRoutedBatchAllocations is TestRoutedSingleAllocations for
// batch32_binary: one binary /querybatch of the 32 queries stays at or
// under 532 allocations (530 to 532, by how the ring splits the batch
// between the backends). Each backend writes its engine's results into
// its reply without first copying them into reply records.
func TestRoutedBatchAllocations(t *testing.T) {
	routedAllocations(t, "a routed 32-query batch", 532, server.ClientOptions{WireBinary: true},
		func(ctx context.Context, cl *server.Client, qs []*graph.Graph, _ int) error {
			_, err := cl.QueryBatch(ctx, qs)
			return err
		})
}

// routedAllocations sends through startHopFleet until every query is an
// exact hit, then checks that one send allocates at most ceiling times.
func routedAllocations(t *testing.T, what string, ceiling float64, opts server.ClientOptions,
	send func(ctx context.Context, cl *server.Client, qs []*graph.Graph, i int) error) {
	rt, queries := startHopFleet(t)
	cl := server.NewClientWith(rt.Addr(), opts)
	ctx := context.Background()
	next := 0
	call := func() {
		if err := send(ctx, cl, queries, next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for range 4 * len(queries) { // every query cached: the rest are exact hits
		call()
	}
	if allocs := testing.AllocsPerRun(10*len(queries), call); allocs > ceiling {
		t.Errorf("%s allocates %.0f times, want ≤ %.0f", what, allocs, ceiling)
	} else {
		t.Logf("%s allocates %.0f times", what, allocs)
	}
}
