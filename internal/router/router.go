// Package router is gcrouter's serving tier: an HTTP front-end exposing
// the gcserved wire API (POST /query, POST /querybatch, GET /stats,
// GET /healthz) over N gcserved backends, turning the single daemon into
// a horizontally scalable fleet — the service-boundary step of the
// paper's caching *system* for many clients. Two modes:
//
//   - Replicate: every backend holds a full cache. Single queries are
//     routed by key affinity: the query's isomorphism-invariant key
//     (graph.IsoKey, the key the backends' exact lookup uses) picks its
//     home on a consistent-hash ring, so isomorphic queries land on the
//     same replica and its exact hits concentrate there; when the
//     affinity replica is unavailable or saturated the least-loaded one
//     takes over. Batches go whole to the least-loaded backend — one
//     QueryBatch execution per batch.
//
//   - Shard: queries are partitioned across backends by the same key,
//     so the fleet's aggregate cache capacity is N caches with
//     (near-)disjoint contents. Batches are split per backend and
//     scatter-gathered — one QueryBatch per backend — with results
//     re-stitched in request order.
//
// Because GraphCache's pruning rules are sound, any backend answers any
// query correctly — the partition only concentrates cache hits — so the
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
//     blocking up to QueueTimeout when the backend is saturated, and the
//     caller's context cancels a queued dispatch before it reaches the
//     backend. Assignment prefers less-loaded replicas when affinity and
//     load conflict.
//
//   - The front door sheds: when fleet-wide admitted work crosses
//     ShedThreshold, /query and /querybatch answer 429 with Retry-After
//     instead of letting every queue grow without bound.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// Mode selects how the router spreads queries over its backends.
type Mode int

const (
	// Replicate treats every backend as a full cache replica: singles
	// follow key affinity with a least-loaded fallback, batches go whole
	// to the least-loaded available backend.
	Replicate Mode = iota
	// Shard partitions queries across backends by key; batches
	// are split per backend and scatter-gathered.
	Shard
)

func (m Mode) String() string {
	switch m {
	case Replicate:
		return "replicate"
	case Shard:
		return "shard"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode converts a -mode flag value into a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "replicate":
		return Replicate, nil
	case "shard":
		return Shard, nil
	}
	return 0, fmt.Errorf("router: unknown mode %q (want replicate or shard)", s)
}

// Options configures a Router.
type Options struct {
	// Addr is the TCP listen address (default "127.0.0.1:7631").
	Addr string
	// Backends lists the gcserved addresses ("host:port" or full base
	// URLs) the router fronts. At least one is required.
	Backends []string
	// Mode is the routing mode: Replicate (default) or Shard.
	Mode Mode
	// ProbeInterval is how often the health prober checks every backend
	// (default 500ms). Probe outcomes feed the same per-backend circuit
	// breakers as dispatch outcomes, so an idle backend's breaker opens
	// and recovers without burning client requests.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe, and one backend's share of an
	// aggregated /stats fan-out (default 2s).
	ProbeTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 64 MiB).
	MaxBodyBytes int64

	// QueueBound caps each backend's dispatch slots — in-flight requests
	// through the router (default 64). Past it, dispatches queue.
	QueueBound int
	// QueueTimeout bounds how long a dispatch may wait for a saturated
	// backend's slot before failing over (default 1s). The request's own
	// context cancels the wait earlier.
	QueueTimeout time.Duration
	// BreakerWindow is the sliding window over which each backend's
	// error budget is evaluated (default 10s).
	BreakerWindow time.Duration
	// ErrorBudget is the failure fraction within BreakerWindow that
	// opens a backend's breaker (default 0.5). Lower values eject
	// sooner; with BreakerMinSamples 1 and a tiny budget the breaker
	// degenerates to the old eject-on-first-failure behavior.
	ErrorBudget float64
	// BreakerMinSamples is the minimum window sample count before the
	// error budget can open a breaker (default 5), so one unlucky
	// request cannot eject an idle backend.
	BreakerMinSamples int
	// BreakerCooldown is how long an open breaker rejects dispatches
	// before half-opening for probe dispatches (default 1s).
	BreakerCooldown time.Duration
	// HalfOpenProbes caps concurrent probe dispatches through a
	// half-open breaker (default 1).
	HalfOpenProbes int
	// ShedThreshold caps fleet-wide admitted queries (queued plus
	// in-flight); past it /query and /querybatch answer 429 with
	// Retry-After (default 2 × QueueBound × len(Backends) — twice the
	// depth the backends can absorb concurrently). The default is fixed
	// at construction; it does not track later joins and drains.
	ShedThreshold int

	// AdminAddr, when non-empty, is the listen address of the admin API
	// (POST /backends, DELETE /backends/{id}, GET /topology) — the live
	// topology control surface. It is bound separately from Addr so the
	// fleet's management plane need not be exposed to query clients.
	AdminAddr string
	// WarmTimeout bounds a joining backend's snapshot warm-up — the
	// joiner's fetch-and-load of a healthy peer's snapshot (default 60s).
	WarmTimeout time.Duration
	// DrainTimeout bounds how long a drain waits for a departing
	// backend's in-flight dispatches after new dispatches stop
	// (default 30s).
	DrainTimeout time.Duration

	// Logger receives the router's structured log events — breaker
	// transitions, joins and drains (default slog.Default()).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:7631"
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.QueueBound <= 0 {
		o.QueueBound = 64
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = time.Second
	}
	if o.BreakerWindow <= 0 {
		o.BreakerWindow = 10 * time.Second
	}
	if o.ErrorBudget <= 0 {
		o.ErrorBudget = 0.5
	}
	if o.BreakerMinSamples <= 0 {
		o.BreakerMinSamples = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.HalfOpenProbes <= 0 {
		o.HalfOpenProbes = 1
	}
	if o.ShedThreshold <= 0 {
		n := len(o.Backends)
		if n == 0 {
			n = 1
		}
		o.ShedThreshold = 2 * o.QueueBound * n
	}
	if o.WarmTimeout <= 0 {
		o.WarmTimeout = 60 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
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
	mux  *http.ServeMux
	hs   *http.Server
	lis  net.Listener

	// topo is the current fleet generation; the hot path loads it once
	// per request. topoMu serialises writers (Join/Drain), never readers.
	topo   atomic.Pointer[topology]
	topoMu sync.Mutex

	adminMux *http.ServeMux
	adminHS  *http.Server
	adminLis net.Listener

	reg *telemetry.Registry
	met *routerMetrics
	// wire is the front door's format negotiation — the same reader,
	// writers and codec metrics gcserved exposes, under the router's
	// prefix, so one scrape shows what the fleet's clients negotiate.
	wire  *server.Wire
	start time.Time

	stop      chan struct{}
	probeDone chan struct{}

	routed  atomic.Int64 // queries dispatched to their assigned backend
	retried atomic.Int64 // queries re-dispatched after a failed attempt
	shed    atomic.Int64 // requests refused with 429 at the front door
	// ejectedGone preserves drained backends' breaker opens so the
	// fleet-wide Ejected counter stays monotone across topology changes.
	// ejectMu serialises Drain's fold-then-shrink hand-off with Counters'
	// read, keeping Ejected monotone for concurrent observers too.
	ejectedGone atomic.Int64
	ejectMu     sync.Mutex
	admitted    atomic.Int64 // queries admitted and not yet answered

	// Mutation ingress state (mutate.go). mutMu serialises fan-outs and
	// sequence assignment; mutSeq is the last sequence number handed out,
	// seeded lazily from the fleet's own /stats so a restarted router
	// never reuses a number the fleet already consumed.
	mutations    atomic.Int64 // mutation fan-outs completed
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
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, errors.New("router: at least one backend is required")
	}
	reg := telemetry.NewRegistry()
	rt := &Router{
		opts:      opts,
		mux:       http.NewServeMux(),
		adminMux:  http.NewServeMux(),
		reg:       reg,
		met:       newRouterMetrics(reg),
		wire:      server.NewWire(reg, "graphcache_router", opts.MaxBodyBytes),
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
	rt.mux.HandleFunc("POST /query", rt.handleQuery)
	rt.mux.HandleFunc("POST /querybatch", rt.handleBatch)
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
// router's (defaulted) options, and registers its per-address telemetry
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
		cl:       server.NewClientWith(addr, server.ClientOptions{WireBinary: true}),
		mcl:      server.NewClientWith(addr, server.ClientOptions{MaxRetries: mutateRetries}),
		dispatch: rt.met.dispatchHist(addr),
		slots:    make(chan struct{}, rt.opts.QueueBound),
		br: newBreaker(breakerConfig{
			window:     rt.opts.BreakerWindow,
			budget:     rt.opts.ErrorBudget,
			minSamples: rt.opts.BreakerMinSamples,
			cooldown:   rt.opts.BreakerCooldown,
			probes:     rt.opts.HalfOpenProbes,
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

// AdminHandler returns the admin API handler (POST /backends,
// DELETE /backends/{id}, GET /topology), for embedding or tests. The
// daemon lifecycle serves it on Options.AdminAddr when that is set.
func (rt *Router) AdminHandler() http.Handler { return rt.adminMux }

// Options returns the router's (defaulted) configuration.
func (rt *Router) Options() Options { return rt.opts }

// Start probes every backend once (so breaker windows have samples
// before the first request), binds the listen address and starts the
// background prober. It does not serve yet — call Serve, typically on
// its own goroutine.
func (rt *Router) Start() error {
	rt.probeAll()
	lis, err := net.Listen("tcp", rt.opts.Addr)
	if err != nil {
		return fmt.Errorf("router: listen %s: %w", rt.opts.Addr, err)
	}
	rt.lis = lis
	rt.hs = &http.Server{Handler: rt.Handler()}
	if rt.opts.AdminAddr != "" {
		alis, err := net.Listen("tcp", rt.opts.AdminAddr)
		if err != nil {
			lis.Close()
			return fmt.Errorf("router: listen admin %s: %w", rt.opts.AdminAddr, err)
		}
		rt.adminLis = alis
		rt.adminHS = &http.Server{Handler: rt.adminMux}
		// The admin plane serves on its own goroutine for the whole
		// lifecycle; Shutdown tears it down alongside the query plane.
		go rt.adminHS.Serve(alis)
	}
	go rt.probeLoop()
	return nil
}

// AdminAddr returns the bound admin listen address (valid after Start
// when Options.AdminAddr is set; resolves port 0 to the actual port).
func (rt *Router) AdminAddr() string {
	if rt.adminLis == nil {
		return rt.opts.AdminAddr
	}
	return rt.adminLis.Addr().String()
}

// Addr returns the bound listen address (valid after Start; resolves
// port 0 to the actual port).
func (rt *Router) Addr() string {
	if rt.lis == nil {
		return rt.opts.Addr
	}
	return rt.lis.Addr().String()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (rt *Router) Serve() error {
	if err := rt.hs.Serve(rt.lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown stops the prober, stops accepting and drains in-flight
// requests (bounded by ctx). The backends keep running — they are owned
// by their own daemons.
func (rt *Router) Shutdown(ctx context.Context) error {
	close(rt.stop)
	<-rt.probeDone
	var errs []error
	if rt.hs != nil {
		if err := rt.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("router: http shutdown: %w", err))
		}
	}
	if rt.adminHS != nil {
		if err := rt.adminHS.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("router: admin http shutdown: %w", err))
		}
	}
	if rt.adminLis != nil {
		if err := rt.adminLis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("router: closing admin listener: %w", err))
		}
	}
	// As in server.Shutdown: Serve-registered listeners are closed by
	// http.Server.Shutdown, a Serve-less Start→Shutdown must close the
	// socket itself.
	if rt.lis != nil {
		if err := rt.lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("router: closing listener: %w", err))
		}
	}
	return errors.Join(errs...)
}
