// Serving-tier quickstart: N gcserved replicas behind a gcrouter, with
// a load-management drill.
//
// It synthesises a dataset, starts two in-process gcserved backends (the
// same Server type the standalone daemon runs) — one of them behind a
// fault-injecting chaos proxy — and a Router over them, then queries the
// fleet through the ordinary Go client: the router speaks the gcserved
// wire API, so clients cannot tell the difference. The drill then
// demonstrates the serving tier's load management:
//
//  1. chaos: the proxy drops half of one backend's traffic; router
//     failover plus client retries absorb it — zero failed requests;
//  2. breaker cycle: the backend goes fully dark until its circuit
//     breaker opens, then heals and, once the breaker's 1s cooldown is
//     out, is readmitted through a half-open probe — all observable in
//     the breaker's transition counters;
//  3. overload: a burst beyond the router's shed threshold (twice the
//     fleet's dispatch slots, 2 × 64 × 2 = 256 queries) is refused fast
//     with 429 + Retry-After instead of queueing without bound;
//  4. elastic fleet: a third backend joins through the admin API —
//     warmed from a peer's cache snapshot before its first dispatch —
//     serves its ring share, and drains back out, with zero failed
//     requests in either direction;
//  5. telemetry: one traced query (?debug=trace) shows every hop's
//     spans under the request id the router minted, and one /metrics
//     scrape — parsed with the repo's own exposition parser — yields
//     the fleet's p99 query latency.
//
// Run with:
//
//	go run ./examples/router
//
// The standalone equivalent, against files on disk (the chaos proxy
// runs only in process, so here both backends are reached directly):
//
//	gcgen dataset -name aids -count-factor 0.01 -o aids.g
//	gcgen workload -dataset aids.g -type ZZ -n 200 -o queries.g
//	gcserved -dataset aids.g -addr 127.0.0.1:7621 &
//	gcserved -dataset aids.g -addr 127.0.0.1:7622 &
//	gcrouter -backends 127.0.0.1:7621,127.0.0.1:7622 &
//	gcquery  -server 127.0.0.1:7631 -queries queries.g -retries 5
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"graphcache"
	"graphcache/internal/faultproxy"
	"graphcache/internal/telemetry"
)

func main() {
	log.SetFlags(0)

	// 1. One dataset and method, shared by the fleet (methods are
	// read-only after construction); each backend owns its own cache.
	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.01, 1), 42)
	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})

	// 2. Two gcserved backends on ephemeral ports.
	var servers []*graphcache.Server
	for i := 0; i < 2; i++ {
		gc := graphcache.New(m, graphcache.Options{})
		srv := graphcache.NewServer(gc, graphcache.ServerOptions{Addr: "127.0.0.1:0"})
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		go srv.Serve()
		servers = append(servers, srv)
	}

	// 3. A chaos proxy in front of the second backend — the same harness
	// the router's fault tests use. The router talks to the proxy's
	// address; the proxy decides which requests reach the backend.
	chaos := faultproxy.New(servers[1].Addr(), 1)
	if err := chaos.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	go chaos.Serve()

	// 4. The router, which sends every query — single or batched — to
	// its ring home. Its load management has no knobs: every router
	// probes each 500ms, opens a breaker past a 0.5 error budget and
	// rests it 1s, and gives each backend 64 dispatch slots.
	rt, err := graphcache.NewRouter(graphcache.RouterOptions{
		Addr:      "127.0.0.1:0",
		Backends:  []string{servers[0].Addr(), chaos.Addr()},
		AdminAddr: "127.0.0.1:0", // topology admin API for the scale-up leg
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	go rt.Serve()
	fmt.Printf("routing over 2 backends (one behind a chaos proxy) on http://%s\n", rt.Addr())

	// 5. A resilient client: per-attempt timeouts plus retries with
	// jittered backoff that honour Retry-After. Queries are idempotent,
	// so retrying through chaos is always safe.
	cl := graphcache.NewServerClientWith(rt.Addr(), graphcache.ServerClientOptions{
		MaxRetries:     5,
		RetryBaseDelay: 10 * time.Millisecond,
	})
	ctx := context.Background()

	cfg, err := graphcache.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, 120)
	if err != nil {
		log.Fatal(err)
	}
	queries := graphcache.TypeA(ds, cfg, 7)

	// 6. Chaos drill: half of the flaky backend's traffic is severed
	// mid-request. Router failover re-dispatches to the steady replica
	// and the client retries refusals — no query may fail.
	chaos.SetDropRate(0.5)
	for i := 0; i < 60; i++ {
		if _, err := cl.Query(ctx, queries[i].Graph); err != nil {
			log.Fatalf("query %d through 50%% chaos: %v", i, err)
		}
	}
	fmt.Println("60 queries survived a backend dropping half its traffic")

	// 7. Breaker cycle: the flaky backend goes fully dark. Failed
	// dispatches and probes breach its error budget, the breaker opens,
	// and queries flow through the steady replica alone.
	chaos.SetDropRate(1)
	waitBreaker(rt, chaos.Addr(), "open")
	for i := 60; i < 120; i++ {
		if _, err := cl.Query(ctx, queries[i].Graph); err != nil {
			log.Fatalf("query %d during blackout: %v", i, err)
		}
	}
	fmt.Println("60 more queries survived the backend's blackout (breaker open)")

	// Heal: after the 1s cooldown a half-open probe readmits the
	// backend — no restart, no operator, just the breaker's own cycle.
	chaos.SetDropRate(0)
	waitBreaker(rt, chaos.Addr(), "closed")
	br := breakerOf(rt, chaos.Addr())
	fmt.Printf("breaker cycle observed: %d opens, %d half-opens, %d closes\n",
		br.Opens, br.HalfOpens, br.Closes)

	// 8. Overload: a burst far beyond the shed threshold — 40 batches of
	// 16 queries, 640 in flight against a threshold of 256. The front
	// door refuses the excess fast with 429 + Retry-After (seen here as
	// ServerStatusError) instead of queueing without bound. A plain
	// no-retry client makes the refusals visible.
	chaos.SetLatency(200 * time.Millisecond) // make requests dwell
	plain := graphcache.NewServerClient(rt.Addr())
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, shed := 0, 0
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			batch := make([]*graphcache.Graph, 16)
			for k := range batch {
				batch[k] = queries[(i*16+k)%len(queries)].Graph
			}
			_, err := plain.QueryBatch(ctx, batch)
			mu.Lock()
			defer mu.Unlock()
			var se *graphcache.ServerStatusError
			switch {
			case err == nil:
				served++
			case errors.As(err, &se) && se.Code == 429:
				shed++
			default:
				log.Fatalf("burst batch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("burst of 40 batches (640 queries) over threshold 256: %d served, %d shed with 429+Retry-After\n", served, shed)

	// 9. Fleet-wide stats through the plain client, router counters from
	// the Router itself.
	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	c := rt.Counters()
	fmt.Printf("fleet totals: %d queries, %d cached, %d exact hits\n",
		st.Totals.Queries, st.Cached, st.Totals.ExactHits)
	fmt.Printf("router: routed %d, retried %d, breaker opens %d, shed %d\n",
		c.Routed, c.Retried, c.Ejected, c.Shed)

	// 10. Elastic scale-up through the admin API: a third backend joins
	// the live fleet. The router health-checks it, ships it the
	// least-loaded healthy peer's cache snapshot (GET /snapshot →
	// POST /warm), and only then admits it to the consistent-hash ring —
	// its first dispatch ever hits a warmed cache. Then it drains back
	// out: no new dispatches, in-flight work finishes, off the ring.
	chaos.SetLatency(0)
	gc3 := graphcache.New(m, graphcache.Options{})
	third := graphcache.NewServer(gc3, graphcache.ServerOptions{Addr: "127.0.0.1:0"})
	if err := third.Start(); err != nil {
		log.Fatal(err)
	}
	go third.Serve()
	servers = append(servers, third)

	admin := "http://" + rt.AdminAddr()
	var joined graphcache.RouterJoinResponse
	adminCall(ctx, http.MethodPost, admin+"/backends",
		graphcache.RouterJoinRequest{Addr: third.Addr()}, &joined)
	fmt.Printf("backend %s joined: warmed from %s with %d cached queries before its first dispatch\n",
		joined.Addr, joined.WarmedFrom, joined.Cached)

	for i := 0; i < 60; i++ { // the grown fleet serves; the joiner takes its ring share
		if _, err := cl.Query(ctx, queries[i%len(queries)].Graph); err != nil {
			log.Fatalf("query %d through the grown fleet: %v", i, err)
		}
	}
	var topo graphcache.RouterTopologyResponse
	adminCall(ctx, http.MethodGet, admin+"/topology", nil, &topo)
	fmt.Printf("fleet is %d backends; scale-down: draining %s\n", len(topo.Backends), third.Addr())

	adminCall(ctx, http.MethodDelete, admin+"/backends/"+third.Addr(), nil, nil)
	adminCall(ctx, http.MethodGet, admin+"/topology", nil, &topo)
	for i := 0; i < 20; i++ {
		if _, err := cl.Query(ctx, queries[i].Graph); err != nil {
			log.Fatalf("query %d after the drain: %v", i, err)
		}
	}
	fmt.Printf("drained back to %d backends, zero failed requests through join and drain\n", len(topo.Backends))

	// 11. Telemetry: one traced query shows the whole path under the id
	// the router minted, and one /metrics scrape yields the fleet's p99 —
	// parsed with the same exposition parser the repo ships, no
	// Prometheus server required.
	traced, err := cl.QueryTrace(ctx, queries[0].Graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("traced query %s: %d spans (first %s)\n",
		traced.Trace.RequestID, len(traced.Trace.Spans), traced.Trace.Spans[0].Name)

	mres, err := http.Get("http://" + rt.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	samples, err := telemetry.ParseProm(mres.Body)
	mres.Body.Close()
	if err != nil {
		log.Fatalf("parsing /metrics: %v", err)
	}
	var totalBuckets []telemetry.Sample
	for _, s := range samples {
		if s.Name == "graphcache_query_duration_seconds_bucket" && s.Labels["stage"] == "total" {
			totalBuckets = append(totalBuckets, s)
		}
	}
	p99 := telemetry.HistogramQuantile(0.99, totalBuckets)
	fmt.Printf("fleet p99 query latency: %.3fms (from %d exposition samples)\n", p99*1000, len(samples))

	// 12. Graceful teardown.
	if err := rt.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := chaos.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	for _, srv := range servers {
		if err := srv.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
	}
}

// adminCall runs one request against the router's admin API, decoding
// the JSON reply into out when non-nil and failing the drill on any
// non-200 status.
func adminCall(ctx context.Context, method, url string, body, out any) {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		log.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatalf("%s %s: %v", method, url, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(res.Body)
		log.Fatalf("%s %s: %s (%s)", method, url, res.Status, msg)
	}
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			log.Fatalf("%s %s: decoding reply: %v", method, url, err)
		}
	}
}

// breakerOf reads one backend's breaker row from the router's /stats.
func breakerOf(rt *graphcache.Router, addr string) graphcache.RouterBreakerStats {
	for _, b := range rt.BackendStats() {
		if b.Addr == addr {
			return b.Breaker
		}
	}
	log.Fatalf("no /stats row for backend %s", addr)
	return graphcache.RouterBreakerStats{}
}

// waitBreaker polls until addr's breaker reaches the wanted state.
func waitBreaker(rt *graphcache.Router, addr, state string) {
	deadline := time.Now().Add(10 * time.Second)
	for breakerOf(rt, addr).State != state {
		if time.Now().After(deadline) {
			log.Fatalf("backend %s breaker never reached %q", addr, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
