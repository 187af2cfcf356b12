package router

import (
	"context"
	"testing"

	"graphcache/internal/server"
)

// BenchmarkRouterHop measures queries through a router in front of two
// gcserved backends, all in this process over loopback TCP: single text
// /query requests, and binary /querybatch requests of 32. A query repeats
// every 32, so after the first round each is an exact hit and the hops
// are most of the time. ns/query is the wall time per query; allocs/op
// counts both tiers and the client, which share the process.
func BenchmarkRouterHop(b *testing.B) {
	ds := testDataset(60, 301)
	queries := testWorkload(ds, 32, 302)
	b1, b2 := startBackend(b, ds), startBackend(b, ds)
	rt := startRouter(b, Options{Backends: []string{b1.Addr(), b2.Addr()}})
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
