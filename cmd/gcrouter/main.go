// Command gcrouter is the GraphCache serving-tier router: it fronts N
// running gcserved backends behind the same HTTP/JSON wire API, turning
// the single daemon into a horizontally scalable fleet.
//
//	gcserved -dataset aids.g -addr 127.0.0.1:7621 &
//	gcserved -dataset aids.g -addr 127.0.0.1:7622 &
//	gcrouter -backends 127.0.0.1:7621,127.0.0.1:7622 -mode replicate
//	gcquery  -server 127.0.0.1:7631 -queries queries.g
//
// Modes:
//
//	replicate  every backend holds a full cache; single queries follow
//	           key affinity (exact hits concentrate per replica)
//	           with a least-pending fallback, batches go whole to the
//	           least-pending backend
//	shard      queries are partitioned by key, so the fleet's
//	           aggregate cache capacity is N caches with (near-)disjoint
//	           contents; batches are split per backend & scatter-gathered
//
// Load management (see the package documentation's "Load management"
// section): each backend has a circuit breaker — failed probes and
// dispatches count against an -error-budget over a sliding
// -breaker-window, an open breaker rests for -breaker-cooldown and then
// half-opens for probe dispatches that readmit or re-eject it — plus a
// bounded dispatch queue (-queue-bound, -queue-timeout) with
// backpressure. Failed dispatches are re-dispatched to other backends
// (answers are never lost to a single backend's death), and when
// fleet-wide admitted work crosses -shed-threshold the front door sheds
// with 429 + Retry-After. GET /stats reports fleet-wide aggregates,
// per-backend detail (breaker state and transition counters included)
// and the router's counters; GET /healthz is green while at least one
// backend is dispatchable.
//
// Single-query affinity rides a consistent-hash ring (virtual nodes per
// backend), so growing or shrinking the fleet remaps only ~1/N of the
// key space. With -admin-addr the router serves a topology admin API for
// doing exactly that at runtime:
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
		backends = flag.String("backends", "", "comma-separated gcserved addresses (required)")
		modeNm   = flag.String("mode", "replicate", "routing mode: replicate or shard")
		addr     = flag.String("addr", "127.0.0.1:7631", "listen address (port 0 picks an ephemeral port)")
		probeIv  = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe interval")
		probeTo  = flag.Duration("probe-timeout", 2*time.Second, "health-probe timeout")

		queueBound   = flag.Int("queue-bound", 64, "per-backend dispatch slots before backpressure")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "max wait for a saturated backend's slot before failing over")
		errBudget    = flag.Float64("error-budget", 0.5, "failure fraction over -breaker-window that opens a backend's breaker")
		brWindow     = flag.Duration("breaker-window", 10*time.Second, "sliding window for the error budget")
		brCooldown   = flag.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before half-open probing")
		brMinSamples = flag.Int("breaker-min-samples", 5, "window samples required before the budget can open a breaker")
		shedThresh   = flag.Int("shed-threshold", 0, "fleet-wide admitted queries before 429 shedding (0 = 2 x queue-bound x backends)")
		adminAddr    = flag.String("admin-addr", "", "listen address for the topology admin API, /metrics and pprof (empty disables live join/drain)")
		logJSON      = flag.Bool("log-json", false, "emit structured logs as one-line JSON instead of text")
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
	mode, err := graphcache.ParseRouterMode(*modeNm)
	if err != nil {
		fatal(err.Error())
	}

	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	rt, err := graphcache.NewRouter(graphcache.RouterOptions{
		Addr:              *addr,
		Backends:          addrs,
		Mode:              mode,
		ProbeInterval:     *probeIv,
		ProbeTimeout:      *probeTo,
		QueueBound:        *queueBound,
		QueueTimeout:      *queueTimeout,
		ErrorBudget:       *errBudget,
		BreakerWindow:     *brWindow,
		BreakerCooldown:   *brCooldown,
		BreakerMinSamples: *brMinSamples,
		ShedThreshold:     *shedThresh,
		AdminAddr:         *adminAddr,
		Logger:            logger,
	})
	if err != nil {
		fatal(err.Error())
	}
	if err := rt.Start(); err != nil {
		fatal(err.Error())
	}
	logger.Info("routing", "mode", mode.String(), "backends", len(addrs), "addr", rt.Addr())
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
