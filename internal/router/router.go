// Package router is gcrouter's serving tier: an HTTP front-end exposing
// the gcserved wire API (POST /query, POST /querybatch, GET /stats,
// GET /healthz) over N gcserved backends, turning the single daemon into
// a horizontally scalable fleet — the service-boundary step of the
// paper's caching *system* for many clients. It routes by one rule:
// every query, single or batched, goes to its home — the backend its
// isomorphism-invariant key (graph.IsoKey, the key the backends' exact
// lookup uses) falls on in a consistent-hash ring — so isomorphic
// queries land on the same backend and its cache earns their hits. A
// query whose home is unavailable, lagging the fleet's dataset epoch or
// saturated goes to the least-loaded backend instead. A request is split
// by that rule into at most one /querybatch per backend, scatter-gathered
// and re-stitched in request order; a single query is a batch of one,
// sent to its home's /querybatch, and both routes share one handler and
// one dispatch path. ?debug=trace works on either route.
//
// The router never builds a graph from a binary request. It splits the
// GCBF frame into its graph bodies, checking each as a backend's decoder
// would, reads each body's key off its bytes (graph.SplitBinary), and
// sends each backend a frame of that backend's bodies, byte for byte as
// the client sent them. A text request is parsed and transcoded to
// bodies once, at the door.
//
// Because GraphCache's pruning rules are sound, any backend answers any
// query correctly — routing only concentrates cache hits — so the
// router can fail over freely: a dispatch that fails (transport failure
// or 5xx) is re-dispatched to another backend.
//
// Production load management replaces the old binary healthy flag:
//
//   - Each backend has a circuit breaker (breaker.go): failures are
//     tallied over a sliding window and the breaker opens only on an
//     error-budget breach, rests for a cooldown, then half-opens to let
//     bounded probe dispatches decide between closing and re-opening.
//     The transitions are lazy, so a handler-only embedding (no Start,
//     no background prober) readmits recovered backends on its own
//     dispatch attempts; the prober only accelerates the cycle.
//
//   - Each backend has a bounded request queue: a dispatch takes a slot,
//     blocking up to slotWait when the backend is saturated, and the
//     caller's context cancels a queued dispatch before it reaches the
//     backend. Assignment prefers less-loaded replicas when affinity and
//     load conflict.
//
//   - The front door sheds: when fleet-wide admitted work crosses twice
//     the dispatch slots of the topology the request loaded, /query and
//     /querybatch answer 429 with Retry-After instead of letting every
//     queue grow without bound. The threshold follows joins and drains.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// Mode was the routing-mode selector. The router has one routing rule
// (see the package documentation), so there is nothing left to select.
//
// Deprecated: ignored.
type Mode int

// Replicate was the default routing mode.
//
// Deprecated: ignored.
const Replicate Mode = 0

// Options configures a Router.
type Options struct {
	// Addr is the TCP listen address (default "127.0.0.1:7631").
	Addr string
	// Backends lists the gcserved addresses ("host:port" or full base
	// URLs) the router fronts. At least one is required.
	Backends []string
	// Mode was the routing mode.
	//
	// Deprecated: ignored.
	Mode Mode
	// AdminAddr, when non-empty, is the listen address of the admin API
	// (POST /backends, DELETE /backends/{id}, GET /topology) — the live
	// topology control surface. It is bound separately from Addr so the
	// fleet's management plane need not be exposed to query clients.
	AdminAddr string

	// Logger receives the router's structured log events — breaker
	// transitions, joins and drains (default slog.Default()).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:7631"
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// The router's load management runs on these constants; no option, flag
// or environment variable changes them.
const (
	probeInterval     = 500 * time.Millisecond // health-probe period; probes feed the breakers
	probeTimeout      = 2 * time.Second        // bounds a probe, and a backend's share of a fan-out
	dispatchSlots     = 64                     // in-flight dispatches per backend; past it they queue
	slotWait          = time.Second            // longest wait for a slot before failing over
	breakerWindow     = 10 * time.Second       // sliding window of each backend's error budget
	errorBudget       = 0.5                    // failure fraction in the window that opens a breaker
	breakerMinSamples = 5                      // outcomes the window needs before it can open one
	breakerCooldown   = time.Second            // how long an open breaker rests before half-opening
)

// tuning carries the load-management constants into a Router. New always
// builds routers on defaultTuning; the struct exists so this package's
// tests can build one with fast breakers or a parked prober (newRouter).
type tuning struct {
	probeInterval, probeTimeout time.Duration
	slots                       int
	slotWait                    time.Duration
	breakerWindow               time.Duration
	errorBudget                 float64
	breakerMinSamples           int
	breakerCooldown             time.Duration
}

var defaultTuning = tuning{
	probeInterval:     probeInterval,
	probeTimeout:      probeTimeout,
	slots:             dispatchSlots,
	slotWait:          slotWait,
	breakerWindow:     breakerWindow,
	errorBudget:       errorBudget,
	breakerMinSamples: breakerMinSamples,
	breakerCooldown:   breakerCooldown,
}

// Router fronts N gcserved backends behind the gcserved wire API.
// Construct with New, then Start/Serve/Shutdown for the daemon lifecycle
// or Handler for embedding; clients use the ordinary server.Client — the
// router is indistinguishable from a (very scalable) gcserved. The
// background prober only runs inside the Start→Shutdown lifecycle, but a
// Handler-only embedding still readmits recovered backends: breaker
// transitions are lazy, so the next dispatch after the cooldown probes
// the backend itself.
type Router struct {
	opts Options
	tun  tuning
	mux  *http.ServeMux
	ln   *server.Listener

	// topo is the current fleet generation; the hot path loads it once
	// per request. topoMu serialises writers (Join/Drain), never readers.
	topo   atomic.Pointer[topology]
	topoMu sync.Mutex

	adminMux *http.ServeMux
	admin    *server.Listener

	reg *telemetry.Registry
	met *routerMetrics
	// wire is the front door's format negotiation — the same reader,
	// writers and codec metrics gcserved exposes, under the router's
	// prefix, so one scrape shows what the fleet's clients negotiate.
	wire  *server.Wire
	start time.Time

	stop      chan struct{}
	probeDone chan struct{}

	admitted atomic.Int64 // queries admitted and not yet answered

	// Mutation ingress state (mutate.go). mutMu serialises fan-outs and
	// sequence assignment; mutSeq is the last sequence number handed out,
	// seeded lazily from the fleet's own /stats so a restarted router
	// never reuses a number the fleet already consumed.
	mutMu        sync.Mutex
	mutSeq       int64
	mutSeqSeeded bool
}

var (
	errNoBackends  = errors.New("router: no backend available")
	errSaturated   = errors.New("router: backend queue full")
	errBreakerOpen = errors.New("router: backend breaker open")
)

// New builds a Router over opts.Backends. The backends need not be up
// yet: breakers start closed (optimistic) and dispatch failures, probe
// failures and recoveries move them from there.
func New(opts Options) (*Router, error) { return newRouter(opts, defaultTuning) }

func newRouter(opts Options, tun tuning) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	reg := telemetry.NewRegistry()
	rt := &Router{
		opts:      opts,
		tun:       tun,
		mux:       http.NewServeMux(),
		ln:        server.NewListener(opts.Addr),
		adminMux:  http.NewServeMux(),
		admin:     server.NewListener(opts.AdminAddr),
		reg:       reg,
		met:       newRouterMetrics(reg),
		wire:      server.NewWire(reg, "graphcache_router", server.RequestBodyLimit),
		start:     time.Now(),
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	bs := make([]*backend, 0, len(opts.Backends))
	for _, addr := range opts.Backends {
		bs = append(bs, rt.newBackend(addr))
	}
	rt.topo.Store(newTopology(bs))
	reg.GaugeFunc("graphcache_router_admitted_queries", "Queries admitted fleet-wide and not yet answered.",
		func() float64 { return float64(rt.admitted.Load()) })
	reg.GaugeFunc("graphcache_router_backends", "Backends in the current topology.",
		func() float64 { return float64(len(rt.backends())) })
	reg.GaugeFunc("graphcache_router_backends_available", "Backends currently eligible for dispatch.",
		func() float64 { return float64(rt.availableCount()) })
	reg.GaugeFunc("graphcache_router_fleet_epoch", "Fleet dataset epoch — the maximum across backends.",
		func() float64 { return float64(rt.topo.Load().fleetEpoch()) })
	rt.mux.HandleFunc("POST /query", rt.serveQueries)
	rt.mux.HandleFunc("POST /querybatch", rt.serveQueries)
	rt.mux.HandleFunc("POST /mutate", rt.handleMutate)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", reg.Handler())
	rt.adminMux.HandleFunc("POST /backends", rt.handleJoin)
	rt.adminMux.HandleFunc("DELETE /backends/{id}", rt.handleDrain)
	rt.adminMux.HandleFunc("GET /topology", rt.handleTopology)
	// The admin plane carries the fleet's observability surface too:
	// /metrics (the same registry as the query plane's) and pprof, so
	// profiling a live router never requires exposing the query port.
	rt.adminMux.Handle("GET /metrics", reg.Handler())
	rt.adminMux.HandleFunc("GET /debug/pprof/", pprof.Index)
	rt.adminMux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	rt.adminMux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	rt.adminMux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	rt.adminMux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return rt, nil
}

// newBackend builds one backend's client, breaker and queue from the
// router's tuning, and registers its per-address telemetry
// series. A backend re-joining under the same address reuses its old
// series (registry get-or-create), so counters stay monotone across
// drain/join cycles; the queue-depth gauge resolves the address through
// the *current* topology so it always reads the live backend.
func (rt *Router) newBackend(addr string) *backend {
	rt.reg.GaugeFunc("graphcache_router_backend_queue_depth",
		"Dispatches in flight plus queued, per backend.",
		func() float64 {
			if b := rt.topo.Load().find(addr); b != nil {
				return float64(b.load())
			}
			return 0
		}, telemetry.L("backend", addr))
	rt.reg.GaugeFunc("graphcache_router_backend_dataset_epoch",
		"Last observed dataset epoch, per backend.",
		func() float64 {
			if b := rt.topo.Load().find(addr); b != nil {
				return float64(b.epoch.Load())
			}
			return 0
		}, telemetry.L("backend", addr))
	return &backend{
		addr:     addr,
		cl:       server.NewClient(addr),
		mcl:      server.NewClientWith(addr, server.ClientOptions{MaxRetries: mutateRetries}),
		dispatch: rt.met.dispatchHist(addr),
		slots:    make(chan struct{}, rt.tun.slots),
		br: newBreaker(breakerConfig{
			window:     rt.tun.breakerWindow,
			budget:     rt.tun.errorBudget,
			minSamples: rt.tun.breakerMinSamples,
			cooldown:   rt.tun.breakerCooldown,
			onTransition: func(to State) {
				rt.met.onTransition(to)
				rt.opts.Logger.Info("breaker transition",
					"component", "gcrouter", "backend", addr, "state", to.String())
			},
		}),
	}
}

// backends returns the current topology generation's backend list.
func (rt *Router) backends() []*backend { return rt.topo.Load().bs }

// Handler returns the router's HTTP handler — the query mux behind the
// request-id middleware — for embedding or for httptest-driven tests.
func (rt *Router) Handler() http.Handler { return server.WithRequestID(rt.mux) }

// Metrics returns the router's telemetry registry, for embedding its
// exposition elsewhere or asserting on metrics in tests.
func (rt *Router) Metrics() *telemetry.Registry { return rt.reg }

// Options returns the router's (defaulted) configuration.
func (rt *Router) Options() Options { return rt.opts }

// Start probes every backend once (so breaker windows have samples
// before the first request), binds the listen address — and the admin
// address when one is set, serving the admin plane on its own goroutine
// until Shutdown — and starts the background prober. It does not serve
// the query plane yet — call Serve, typically on its own goroutine.
func (rt *Router) Start() error {
	rt.probeAll()
	if err := rt.ln.Listen(rt.Handler()); err != nil {
		return fmt.Errorf("router: %w", err)
	}
	if rt.opts.AdminAddr != "" {
		if err := rt.admin.Listen(rt.adminMux); err != nil {
			rt.ln.Shutdown(context.Background())
			return fmt.Errorf("router: admin %w", err)
		}
		go rt.admin.Serve()
	}
	go rt.probeLoop()
	return nil
}

// AdminAddr returns the bound admin listen address (valid after Start
// when Options.AdminAddr is set; resolves port 0 to the actual port).
func (rt *Router) AdminAddr() string { return rt.admin.Addr() }

// Addr returns the bound listen address (valid after Start; resolves
// port 0 to the actual port).
func (rt *Router) Addr() string { return rt.ln.Addr() }

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (rt *Router) Serve() error { return rt.ln.Serve() }

// Shutdown stops the prober, stops accepting and drains in-flight
// requests (bounded by ctx) on both planes. The backends keep running —
// they are owned by their own daemons.
func (rt *Router) Shutdown(ctx context.Context) error {
	close(rt.stop)
	<-rt.probeDone
	var errs []error
	if err := rt.ln.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("router: %w", err))
	}
	if err := rt.admin.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("router: admin %w", err))
	}
	return errors.Join(errs...)
}
