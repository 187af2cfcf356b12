// Command gcrouter is the GraphCache serving-tier router: it fronts N
// running gcserved backends behind the same HTTP/JSON wire API, turning
// the single daemon into a horizontally scalable fleet.
//
//	gcserved -dataset aids.g -addr 127.0.0.1:7621 &
//	gcserved -dataset aids.g -addr 127.0.0.1:7622 &
//	gcrouter -backends 127.0.0.1:7621,127.0.0.1:7622
//	gcquery  -server 127.0.0.1:7631 -queries queries.g
//
// Routing has one rule: every query, single or batched, goes to its home
// backend — the one its isomorphism-invariant key falls on in a
// consistent-hash ring — so isomorphic queries meet the same cache and
// its exact hits concentrate there. A query whose home is unavailable,
// lagging the fleet's dataset epoch or holding all 64 of its dispatch
// slots goes to the least-loaded backend instead. A batch is split by
// that rule into at most one sub-batch per backend, scatter-gathered
// and re-stitched in request order.
//
// Load management (see the package documentation's "Load management"
// section) runs on fixed constants and has no flags: each backend has a
// circuit breaker — failed probes (every 500ms) and dispatches count
// against a 0.5 error budget over a sliding 10s window, and an open
// breaker rests for 1s and then half-opens for probe dispatches that
// readmit or re-eject it — plus 64 dispatch slots, a dispatch waiting
// up to 1s for one before failing over. Failed dispatches are
// re-dispatched to other backends (answers are never lost to a single
// backend's death), and when fleet-wide admitted work crosses twice the
// slots of the current fleet (2 × 64 × backends, following joins and
// drains) the front door sheds with 429 + Retry-After. GET /stats
// reports fleet-wide aggregates, per-backend detail (breaker state and
// transition counters included) and the router's counters; GET /healthz
// is green while at least one backend is dispatchable.
//
// The affinity ring has virtual nodes per backend, so growing or
// shrinking the fleet remaps only ~1/N of the key space. With
// -admin-addr the router serves a topology admin API for doing exactly
// that at runtime:
//
//	POST   /backends         {"addr": "host:port"}  join: warm-then-serve
//	DELETE /backends/{addr}                         leave: drain-then-remove
//	GET    /topology                                the fleet as routed right now
//
// A joiner is health-checked, warmed from a healthy peer's snapshot
// (GET /snapshot → POST /warm), re-checked, and only then admitted to
// the ring — its first dispatch hits a warmed cache. A drained backend
// stops receiving dispatches immediately, finishes its in-flight work,
// and only then leaves the ring — zero failed requests either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphcache"
	"graphcache/internal/telemetry"
)

func main() {
	var (
		backends  = flag.String("backends", "", "comma-separated gcserved addresses (required)")
		addr      = flag.String("addr", "127.0.0.1:7631", "listen address (port 0 picks an ephemeral port)")
		adminAddr = flag.String("admin-addr", "", "listen address for the topology admin API, /metrics and pprof (empty disables live join/drain)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as one-line JSON instead of text")
	)
	flag.Parse()

	logger := telemetry.NewLogger("gcrouter", *logJSON)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *backends == "" {
		flag.Usage()
		os.Exit(2)
	}
	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	rt, err := graphcache.NewRouter(graphcache.RouterOptions{
		Addr:      *addr,
		Backends:  addrs,
		AdminAddr: *adminAddr,
		Logger:    logger,
	})
	if err != nil {
		fatal(err.Error())
	}
	if err := rt.Start(); err != nil {
		fatal(err.Error())
	}
	logger.Info("routing", "backends", len(addrs), "addr", rt.Addr())
	if a := rt.AdminAddr(); a != "" {
		logger.Info("admin API up", "addr", a,
			"endpoints", "POST /backends, DELETE /backends/{addr}, GET /topology, GET /metrics, /debug/pprof/")
	}

	// Serve until SIGTERM/SIGINT, then drain. The backends keep running —
	// they belong to their own daemons.
	errc := make(chan error, 1)
	go func() { errc <- rt.Serve() }()
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
	if err := rt.Shutdown(ctx); err != nil {
		fatal(err.Error())
	}
	if err := <-errc; err != nil {
		fatal(err.Error())
	}
	c := rt.Counters()
	fmt.Fprintf(os.Stderr, "gcrouter: routed %d queries (%d retried, %d breaker opens, %d shed)\n",
		c.Routed, c.Retried, c.Ejected, c.Shed)
}
