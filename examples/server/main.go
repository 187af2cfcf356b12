// Serving quickstart: GraphCache over the network.
//
// It synthesises a dataset, starts an in-process gcserved (the same
// Server type the standalone daemon runs), then queries it through the Go
// client — concurrent singles, each run on its own request beside the
// others, one explicit batch answered by one JSON reply, and a query over
// the binary wire codec. Run with:
//
//	go run ./examples/server
//
// The standalone equivalent, against files on disk:
//
//	gcgen dataset -name aids -count-factor 0.01 -o aids.g
//	gcgen workload -dataset aids.g -type ZZ -n 200 -o queries.g
//	gcserved -dataset aids.g -method ggsx -snapshot aids.snap &
//	gcquery -server 127.0.0.1:7621 -queries queries.g
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"graphcache"
)

func main() {
	log.SetFlags(0)

	// 1. A dataset and a method, as in every GraphCache program.
	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.01, 1), 42)
	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})
	gc := graphcache.New(m, graphcache.Options{})

	// 2. The serving subsystem in front of the cache. Port 0 picks an
	// ephemeral port; a daemon would use a fixed -addr. With a
	// SnapshotPath, Start would restore cache contents and Shutdown
	// persist them.
	srv := graphcache.NewServer(gc, graphcache.ServerOptions{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	fmt.Printf("serving %s on http://%s\n", m.Name(), srv.Addr())

	// 3. A client — what gcquery -server uses, and what any Go
	// application embeds. Non-Go clients speak the same JSON/t-v-e wire
	// format directly.
	cl := graphcache.NewServerClient(srv.Addr())
	ctx := context.Background()

	cfg, err := graphcache.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, 120)
	if err != nil {
		log.Fatal(err)
	}
	queries := graphcache.TypeA(ds, cfg, 7)

	// 4. Concurrent single queries: the server runs each on its own
	// request, side by side, and answers it once the cache has counted it.
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 80; i += 4 {
				if _, err := cl.Query(ctx, queries[i].Graph); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("80 concurrent singles in %v\n", time.Since(start).Round(time.Millisecond))

	// 5. An explicit batch: one round-trip, one QueryBatch execution.
	start = time.Now()
	batch := make([]*graphcache.Graph, 0, 40)
	for _, q := range queries[80:] {
		batch = append(batch, q.Graph)
	}
	results, err := cl.QueryBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	answers := 0
	for _, r := range results {
		answers += len(r.Answer)
	}
	fmt.Printf("batch of %d in %v (%d answers)\n",
		len(results), time.Since(start).Round(time.Millisecond), answers)

	// 6. The binary wire: the same queries as compact binary frames, a
	// quarter of the JSON bytes. The request format is chosen per message
	// (Content-Type), so text and binary clients share one server; the
	// replies are JSON either way.
	bin := graphcache.NewServerClientWith(srv.Addr(), graphcache.ServerClientOptions{WireBinary: true})
	br, err := bin.Query(ctx, queries[0].Graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("binary wire: q0 has %d answers (identical to the text wire)\n", len(br.Answer))

	// 7. What the cache did, over the wire.
	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server totals: %d queries in %d batches, %d cached, %d exact hits, %d sub-iso tests\n",
		st.Totals.Queries, st.Totals.Batches, st.Cached, st.Totals.ExactHits, st.Totals.SubIsoTests)

	// 8. Graceful shutdown (the daemon does this on SIGTERM).
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
}
