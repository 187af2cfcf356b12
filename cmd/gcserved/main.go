// Command gcserved is the GraphCache network daemon: it builds a
// query-processing method over a dataset, wraps it in GraphCache, and
// serves queries over an HTTP/JSON API — the paper's caching *system* as
// a standalone service any client, Go or not, can query.
//
//	gcserved -dataset aids.g -method ggsx -addr 127.0.0.1:7621
//	gcserved -dataset aids.g -method vf2plus -cache-size 500 \
//	         -snapshot aids.gcsnapshot
//
// Endpoints (JSON envelopes around the t/v/e graph text format):
//
//	POST /query       {"graph": "t # 0\nv 0 1\n..."}  one query (?debug=trace adds a span breakdown)
//	POST /querybatch  {"graphs": "..."}               a batch, answered by one QueryBatch
//	POST /mutate      {"op": "add|remove|edit", ...}  one live dataset mutation
//	GET  /stats       lifetime totals and serving summary
//	GET  /metrics     Prometheus text exposition (stage histograms, hit/shed counters)
//	GET  /healthz     liveness probe (X-GC-Epoch carries the dataset epoch)
//	GET  /snapshot    stream the live cache as a checksummed snapshot
//	POST /warm        {"from": "host:port"}  replace the cache with a peer's snapshot
//
// Logs are structured (log/slog); -log-json switches them to one-line
// JSON, and -pprof adds net/http/pprof under /debug/pprof/. A query's
// stage timings are in its ?debug=trace reply and, summed over all
// queries, in GET /metrics.
//
// Each request is one run of the cache's query pipeline on its own
// goroutine: a /query is a run of one, a /querybatch a run of its batch,
// and concurrent requests run side by side over the cache's bounded
// verification pool. -shed-threshold is the only bound on how many
// queries are admitted at once.
// With -snapshot, cache contents are loaded on start and written back on
// SIGTERM/SIGINT via graceful shutdown — the Cache Manager lifecycle of
// the paper; a corrupt or truncated snapshot file is quarantined to
// <path>.corrupt and the daemon starts cold. Add -snapshot-interval to
// also write the file periodically, bounding a crash's loss to one
// interval, and -warm-from PEER to start from a running peer's cache
// instead of cold — the snapshot-shipping join used by gcrouter's admin
// API. Query it from Go with graphcache.NewServerClient or from the
// command line with `gcquery -server ADDR`.
//
// POST /mutate applies live dataset mutations — graph additions,
// removals and edge edits — with the cache kept sound in place (see the
// graphcache package documentation's "Dynamic datasets" section). With
// -journal, every mutation is appended and fsynced to a write-ahead log
// *before* it is acknowledged, so a crash — even kill -9 — loses no
// acked mutation: on restart the journal replays on top of the snapshot
// (whose header records the dataset epoch), and the journal is emptied
// whenever a durable snapshot covers it. Submit
// mutations with `gcquery -server ADDR -mutate-op ...` or through a
// fronting gcrouter, which fans them to every backend.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphcache"
	"graphcache/internal/telemetry"
)

func main() {
	var (
		dsFile    = flag.String("dataset", "", "dataset file in t/v/e format (required)")
		methodNm  = flag.String("method", "ggsx", "method: ggsx, grapes1, grapes6, ctindex, vf2, vf2plus, graphql")
		addr      = flag.String("addr", "127.0.0.1:7621", "listen address (port 0 picks an ephemeral port)")
		snapshot  = flag.String("snapshot", "", "snapshot file: loaded on start if present, written on shutdown")
		journal   = flag.String("journal", "", "mutation write-ahead log: fsynced before each /mutate ack, replayed over the snapshot on start")
		cacheSize = flag.Int("cache-size", 100, "cache capacity C in queries")
		window    = flag.Int("window", 20, "window size W in queries")
		policy    = flag.String("policy", "hd", "replacement policy: lru, pop, pin, pinc, hd")
		admission = flag.Float64("admission", 0, "admission-control fraction (0 disables)")
		shedAt    = flag.Int("shed-threshold", 0, "queries admitted concurrently before 429 shedding (0 disables; a fronting gcrouter usually owns shedding)")
		snapIv    = flag.Duration("snapshot-interval", 0, "also write -snapshot periodically, bounding crash loss to one interval (0 = shutdown-only)")
		warmFrom  = flag.String("warm-from", "", "warm the cache from this peer's GET /snapshot before serving (overrides a local -snapshot load)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as one-line JSON instead of text")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the query listener")
	)
	flag.Parse()

	logger := telemetry.NewLogger("gcserved", *logJSON)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *dsFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	pol, err := graphcache.ParsePolicy(*policy)
	if err != nil {
		fatal(err.Error())
	}

	f, err := os.Open(*dsFile)
	if err != nil {
		fatal(err.Error())
	}
	graphs, err := graphcache.ParseGraphs(bufio.NewReader(f))
	f.Close()
	if err != nil {
		fatal("parsing dataset", "file", *dsFile, "err", err)
	}
	ds := graphcache.NewDataset(graphs)
	logger.Info("dataset loaded", "graphs", ds.Len(), "file", *dsFile)

	m, err := graphcache.NewMethodByName(*methodNm, ds)
	if err != nil {
		fatal(err.Error())
	}
	gc := graphcache.New(m, graphcache.Options{
		CacheSize:         *cacheSize,
		WindowSize:        *window,
		Policy:            pol,
		AdmissionFraction: *admission,
	})

	srv := graphcache.NewServer(gc, graphcache.ServerOptions{
		Addr:             *addr,
		SnapshotPath:     *snapshot,
		JournalPath:      *journal,
		SnapshotInterval: *snapIv,
		ShedThreshold:    *shedAt,
		Logger:           logger,
		EnablePprof:      *pprofOn,
	})
	if err := srv.Start(); err != nil {
		fatal(err.Error())
	}
	if *snapshot != "" {
		logger.Info("snapshot restored", "file", *snapshot, "cached", len(gc.CachedSerials()))
	}
	if *warmFrom != "" {
		wctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		warm, err := srv.WarmFrom(wctx, *warmFrom)
		cancel()
		if err != nil {
			fatal("warm-up failed", "from", *warmFrom, "err", err)
		}
		logger.Info("warmed from peer", "from", warm.From, "cached", warm.Cached)
	}
	logger.Info("serving", "method", m.Name(), "mode", m.Mode(), "addr", srv.Addr(), "pprof", *pprofOn)

	// Serve until SIGTERM/SIGINT, then drain and write the snapshot.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		if err != nil {
			fatal(err.Error())
		}
		return
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err.Error())
	}
	if err := <-errc; err != nil {
		fatal(err.Error())
	}
	if *snapshot != "" {
		logger.Info("snapshot written", "file", *snapshot, "cached", len(gc.CachedSerials()))
	}
	tot := gc.Totals()
	fmt.Fprintf(os.Stderr, "gcserved: served %d queries (%d batches, %d exact hits, %d empty shortcuts)\n",
		tot.Queries, tot.Batches, tot.ExactHits, tot.EmptyShortcuts)
}
