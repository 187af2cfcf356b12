package router

import (
	"context"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// startHopFleet runs the fleet BenchmarkRouterHop and the routed
// allocation pins measure: a router in front of two gcserved backends,
// all in this process over loopback TCP, and the 32 queries they send.
// Each backend's cache holds all 32, so after a first round every query
// is an exact hit wherever the ring homes it, and the router's prober is
// parked, so no health probe lands in a measurement.
func startHopFleet(t testing.TB) (*Router, []*graph.Graph) {
	ds := testDataset(60, 301)
	queries := testWorkload(ds, 32, 302)
	backend := func() string {
		c := core.New(ggsx.New(ds, ggsx.Options{}), core.Options{CacheSize: len(queries), WindowSize: 5})
		return serveCache(t, c).Addr()
	}
	tun := defaultTuning
	tun.probeInterval = time.Hour
	return startTunedRouter(t, Options{Backends: []string{backend(), backend()}}, tun), queries
}

// BenchmarkRouterHop measures queries through startHopFleet: single text
// /query requests, and binary /querybatch requests of 32. A query repeats
// every 32, so after the first round each is an exact hit and the hops
// are most of the time. ns/query is the wall time per query; allocs/op
// counts both tiers and the client, which share the process.
func BenchmarkRouterHop(b *testing.B) {
	rt, queries := startHopFleet(b)
	ctx := context.Background()
	perQuery := func(b *testing.B, n int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
	}
	b.Run("single_text", func(b *testing.B) {
		cl := server.NewClient(rt.Addr())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Query(ctx, queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
		perQuery(b, 1)
	})
	b.Run("batch32_binary", func(b *testing.B) {
		cl := server.NewClientWith(rt.Addr(), server.ClientOptions{WireBinary: true})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.QueryBatch(ctx, queries); err != nil {
				b.Fatal(err)
			}
		}
		perQuery(b, len(queries))
	})
}
