// Package router is gcrouter's serving tier: an HTTP front-end exposing
// the gcserved wire API (POST /query, POST /querybatch, GET /stats,
// GET /healthz) over N gcserved backends, turning the single daemon into
// a horizontally scalable fleet — the service-boundary step of the
// paper's caching *system* for many clients. Two modes:
//
//   - Replicate: every backend holds a full cache. Single queries are
//     routed by path-feature-hash affinity (pathfeat.HashVector of the
//     query's feature vector), so isomorphic and feature-identical
//     queries land on the same replica and its cache hits concentrate
//     there; when the affinity replica is unavailable or saturated the
//     least-loaded one takes over. Batches go whole to the least-loaded
//     backend — one QueryBatch execution per batch.
//
//   - Shard: queries are partitioned across backends by the same feature
//     hash, so the fleet's aggregate cache capacity is N caches with
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// Mode selects how the router spreads queries over its backends.
type Mode int

const (
	// Replicate treats every backend as a full cache replica: singles
	// follow feature-hash affinity with a least-loaded fallback, batches
	// go whole to the least-loaded available backend.
	Replicate Mode = iota
	// Shard partitions queries across backends by feature hash; batches
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
	// MaxPathLen is the feature length (in edges) of the affinity hash
	// (default 4, matching the cache's GCindex default, so queries that
	// route to one shard of a backend's cache also route to one backend).
	MaxPathLen int
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
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 4
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

// backend is one gcserved behind the router: its client, its circuit
// breaker and its bounded dispatch queue.
type backend struct {
	addr string
	cl   *server.Client
	// mcl is the mutation-dispatch client: unlike cl (one attempt per
	// call — the router's failover must not multiply attempts), a
	// mutation must land on *this* backend, so mcl retries transport
	// failures and 5xx with the client tier's jittered backoff. Safe
	// because every fan carries a sequence number the backend dedupes.
	mcl *server.Client
	br  *breaker
	// dispatch is this backend's dispatch-latency histogram (queue wait +
	// breaker check + HTTP round-trip), labelled with its address.
	dispatch *telemetry.Histogram
	slots    chan struct{} // dispatch slots; capacity QueueBound
	queued   atomic.Int64  // dispatches waiting for a slot
	// draining marks a backend on its way out of the fleet: it stops
	// taking new dispatches (available() is false) while in-flight work
	// finishes and the topology change lands. Requests racing the drain
	// on an older topology snapshot divert exactly as they would around
	// an open breaker.
	draining atomic.Bool
	// epoch is the backend's last observed dataset epoch, fed by mutate
	// replies, aggregated-stats replies and health-probe headers. A
	// backend below the fleet maximum is lagging — it has not applied a
	// mutation its peers have, so its answers could be stale — and query
	// assignment diverts around it until it catches up.
	epoch atomic.Int64
}

// noteEpoch folds one observed dataset epoch into the backend's view,
// keeping the maximum (observations race each other; the epoch itself
// is monotone).
func (b *backend) noteEpoch(e int64) {
	for {
		cur := b.epoch.Load()
		if e <= cur || b.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// current reports whether the backend has applied every mutation the
// fleet has (its observed epoch matches the fleet maximum).
func (b *backend) current(fleetEpoch int64) bool { return b.epoch.Load() >= fleetEpoch }

// acquire takes a dispatch slot, blocking up to timeout under
// backpressure. The caller's context cancels a queued acquire first —
// a killed client abandons its queue position before the request ever
// reaches the backend.
func (b *backend) acquire(ctx context.Context, timeout time.Duration) error {
	select {
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	b.queued.Add(1)
	defer b.queued.Add(-1)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return errSaturated
	}
}

func (b *backend) release() { <-b.slots }

// load is the routing signal: dispatches holding a slot plus dispatches
// queued for one.
func (b *backend) load() int64 { return int64(len(b.slots)) + b.queued.Load() }

// available reports whether a dispatch could be admitted right now
// (not draining, and breaker not open — or open but cooled down enough
// to half-open).
func (b *backend) available() bool { return !b.draining.Load() && b.br.Available() }

// topology is one immutable generation of the fleet: the backend list
// and the consistent-hash ring derived from it. The hot path loads one
// generation atomically and uses it end-to-end, so a join or drain
// mid-request can never hand a request half of each world.
type topology struct {
	bs   []*backend
	ring *ring
}

func newTopology(bs []*backend) *topology {
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.addr
	}
	return &topology{bs: bs, ring: buildRing(ids)}
}

// fleetEpoch is the fleet's dataset epoch: the maximum epoch any
// backend has reached. Backends below it are lagging and diverted.
func (tp *topology) fleetEpoch() int64 {
	var fe int64
	for _, b := range tp.bs {
		if e := b.epoch.Load(); e > fe {
			fe = e
		}
	}
	return fe
}

// find returns the backend with the given address, or nil.
func (tp *topology) find(addr string) *backend {
	for _, b := range tp.bs {
		if b.addr == addr {
			return b
		}
	}
	return nil
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
		cl:       server.NewClient(addr),
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
func (rt *Router) Handler() http.Handler { return withRequestID(rt.mux) }

// Metrics returns the router's telemetry registry, for embedding its
// exposition elsewhere or asserting on metrics in tests.
func (rt *Router) Metrics() *telemetry.Registry { return rt.reg }

// withRequestID mints each request's fleet-wide id at the fleet's front
// door (an id already present — e.g. a router fronting a router — is
// kept), echoes it on the response, and rides it down the request
// context; the backend client forwards it on every dispatch, so the
// backend's spans and sampled logs carry the id minted here.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(telemetry.RequestIDHeader)
		if id == "" {
			id = telemetry.NewRequestID()
		}
		w.Header().Set(telemetry.RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(telemetry.WithRequestID(r.Context(), id)))
	})
}

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

// Counters returns the router's lifetime routing counters. Ejected is
// the fleet-wide sum of breaker opens — current backends plus any since
// drained — preserving the counter's old meaning (transitions out of
// service) and its monotonicity across topology changes. It serialises
// on ejectMu against Drain's hand-off: the drain folds the departing
// backend's opens into ejectedGone *before* publishing the shrunk
// topology, so a lock-free read racing that hand-off would count the
// backend twice and Ejected would transiently run backwards afterwards.
// (ejectMu, not topoMu: a Join holds topoMu across a snapshot warm-up,
// and /stats must not block on that.)
func (rt *Router) Counters() Counters {
	rt.ejectMu.Lock()
	defer rt.ejectMu.Unlock()
	c := Counters{
		Routed:    rt.routed.Load(),
		Retried:   rt.retried.Load(),
		Shed:      rt.shed.Load(),
		Mutations: rt.mutations.Load(),
		Ejected:   rt.ejectedGone.Load(),
	}
	for _, b := range rt.backends() {
		c.Ejected += b.br.Counts().Opens
	}
	return c
}

// BackendStats returns the router's local view of every backend —
// breaker state and transition counters, in-flight and queued dispatch
// depth — without contacting the backends. The aggregated GET /stats
// builds on this view and adds each backend's own /stats reply.
func (rt *Router) BackendStats() []BackendStats {
	return rt.backendStats(rt.backends())
}

// backendStats builds the per-backend rows over one explicit topology
// generation, so handleStats' concurrent fan-out indexes the same list
// it snapshots.
func (rt *Router) backendStats(bs []*backend) []BackendStats {
	out := make([]BackendStats, len(bs))
	for i, b := range bs {
		ok, fail := b.br.Window()
		out[i] = BackendStats{
			Addr:         b.addr,
			Healthy:      b.br.State() == StateClosed,
			Draining:     b.draining.Load(),
			DatasetEpoch: b.epoch.Load(),
			Pending:      b.cl.PendingCount(),
			Queued:       b.queued.Load(),
			Breaker: BreakerStats{
				State:           b.br.State().String(),
				StateAgeSeconds: b.br.StateAge().Seconds(),
				BreakerCounts:   b.br.Counts(),
				WindowOK:        ok,
				WindowFail:      fail,
			},
		}
	}
	return out
}

// ---- Health probing ----------------------------------------------------

// probeLoop re-probes every backend each ProbeInterval until Shutdown.
// Probes and dispatches feed the same breakers; the prober's job is to
// open the breaker of a backend that dies while idle and to speed up
// half-open probing without spending client requests.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll health-checks every backend concurrently, feeding outcomes to
// the breakers. Backends whose breaker is open and still cooling down
// are skipped; in half-open the probe competes with real dispatches for
// the bounded probe slots.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends() {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if !b.br.Allow() {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), rt.opts.ProbeTimeout)
			defer cancel()
			epoch, binary, err := b.cl.HealthzWire(ctx)
			b.br.Record(err == nil)
			if err == nil {
				b.noteEpoch(epoch)
				// A probe doubles as wire-format discovery: a backend
				// advertising the binary codec gets its client link
				// upgraded in place (and downgraded again if a
				// re-joined replacement stops advertising it).
				b.cl.SetBinaryWire(binary)
			}
		}(b)
	}
	wg.Wait()
}

func (rt *Router) availableCount() int {
	n := 0
	for _, b := range rt.backends() {
		if b.available() {
			n++
		}
	}
	return n
}

// ---- Routing -----------------------------------------------------------

// hash returns q's affinity hash: the order-independent hash of its
// path-feature counts — the same value the backends' pathfeat.HashVector
// computes for their shard routing. Isomorphic queries — and more generally
// queries with identical feature counts — hash identically, so their
// cache hits concentrate on one backend.
func (rt *Router) hash(q *graph.Graph) uint64 {
	return pathfeat.HashVector(pathfeat.SimplePathVector(q, rt.opts.MaxPathLen))
}

// assign picks the backend for one query: its ring home while that home
// is available and below its queue bound, else the least-loaded
// available backend — affinity concentrates cache hits, but never at
// the price of queueing behind a saturated or broken replica while
// others idle. The home is looked up on the consistent-hash ring over
// the *full* backend list, not the available subset, so a breaker
// opening or a drain in progress never remaps the queries of the
// surviving backends — unavailability diverts, only a topology change
// remaps, and the ring bounds even that to ~1/N of the keys. Returns
// nil when no backend is available.
//
// Availability here includes dataset currency: a backend lagging the
// fleet's mutation epoch is skipped exactly like one with an open
// breaker — its cache has not applied a mutation its peers have, so
// serving from it could return stale answers. Lagging, like breaker
// state, diverts without remapping the ring.
func (tp *topology) assign(h uint64, queueBound int) *backend {
	fe := tp.fleetEpoch()
	home := tp.bs[tp.ring.lookup(h)]
	homeOK := home.available() && home.current(fe)
	if homeOK && home.load() < int64(queueBound) {
		return home
	}
	if alt := tp.leastLoaded(home); alt != nil && (!homeOK || alt.load() < home.load()) {
		return alt
	}
	if homeOK {
		return home // the whole fleet is saturated: backpressure at home
	}
	return nil
}

// leastLoaded returns the available, epoch-current backend with the
// least queued plus in-flight work, excluding skip; nil when none
// qualifies.
func (tp *topology) leastLoaded(skip *backend) *backend {
	fe := tp.fleetEpoch()
	var best *backend
	var bestN int64
	for _, b := range tp.bs {
		if b == skip || !b.available() || !b.current(fe) {
			continue
		}
		if n := b.load(); best == nil || n < bestN {
			best, bestN = b, n
		}
	}
	return best
}

// dispatch runs one attempt against b under its queue bound and
// breaker: take a slot (blocking up to QueueTimeout under backpressure,
// cancelled early by ctx), ask the breaker, call, record the outcome.
// Every attempt — including one that dies waiting for a slot — lands in
// the backend's dispatch-latency histogram.
func (rt *Router) dispatch(ctx context.Context, b *backend, call func(context.Context) error) error {
	start := time.Now()
	defer func() { b.dispatch.Observe(time.Since(start).Seconds()) }()
	if err := b.acquire(ctx, rt.opts.QueueTimeout); err != nil {
		return err
	}
	defer b.release()
	if !b.br.Allow() {
		return errBreakerOpen
	}
	err := call(ctx)
	switch {
	case err == nil:
		b.br.Record(true)
	case ctx.Err() != nil:
		b.br.Forget() // the request died, not the backend
	case server.IsBackendDown(err):
		b.br.Record(false)
	default:
		b.br.Record(true) // 4xx: the backend answered; the request is at fault
	}
	return err
}

// retryable reports whether a failed attempt should fail over to
// another backend: yes for down, saturated or breaker-opened backends,
// no when the request itself is at fault — its context died (retrying
// can only fail again) or the backend answered 4xx.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, errSaturated) || errors.Is(err, errBreakerOpen) {
		return true
	}
	return server.IsBackendDown(err)
}

// queryOne dispatches one single query with failover, up to one attempt
// per backend. Singles go through the backend's /query so its coalescer
// can batch concurrent arrivals from many router clients. With trace
// set the backend is asked for its span breakdown (?debug=trace); the
// answering backend's address comes back so the handler can prepend its
// own spans naming the hop.
func (rt *Router) queryOne(ctx context.Context, q *graph.Graph, trace bool) (server.QueryResponse, string, error) {
	tp := rt.topo.Load()
	b := tp.assign(rt.hash(q), rt.opts.QueueBound)
	rt.routed.Add(1)
	rt.met.routed.Inc()
	lastErr := errNoBackends
	for attempt := 0; b != nil && attempt < len(tp.bs); attempt++ {
		var resp server.QueryResponse
		err := rt.dispatch(ctx, b, func(ctx context.Context) error {
			var qerr error
			if trace {
				resp, qerr = b.cl.QueryTrace(ctx, q)
			} else {
				resp, qerr = b.cl.Query(ctx, q)
			}
			return qerr
		})
		if err == nil {
			rt.met.observeStats(&resp.Stats)
			return resp, b.addr, nil
		}
		if !retryable(ctx, err) {
			return server.QueryResponse{}, "", err
		}
		rt.retried.Add(1)
		rt.met.retried.Inc()
		lastErr = err
		b = tp.leastLoaded(b)
	}
	return server.QueryResponse{}, "", lastErr
}

// queryGroup dispatches one backend's share of a batch with the same
// failover discipline as queryOne, as a single QueryBatch round-trip.
func (rt *Router) queryGroup(ctx context.Context, tp *topology, b *backend, qs []*graph.Graph) ([]server.QueryResponse, error) {
	rt.routed.Add(int64(len(qs)))
	rt.met.routed.Add(float64(len(qs)))
	lastErr := errNoBackends
	for attempt := 0; b != nil && attempt < len(tp.bs); attempt++ {
		var results []server.QueryResponse
		err := rt.dispatch(ctx, b, func(ctx context.Context) error {
			var berr error
			results, berr = b.cl.QueryBatch(ctx, qs)
			return berr
		})
		if err == nil {
			for i := range results {
				rt.met.observeStats(&results[i].Stats)
			}
			return results, nil
		}
		if !retryable(ctx, err) {
			return nil, err
		}
		rt.retried.Add(int64(len(qs)))
		rt.met.retried.Add(float64(len(qs)))
		lastErr = err
		b = tp.leastLoaded(b)
	}
	return nil, lastErr
}

// queryBatch answers a whole batch. In Shard mode the batch is split per
// assigned backend and scatter-gathered — one QueryBatch per backend,
// concurrently — then re-stitched in request order; in Replicate mode the
// whole batch goes to the least-loaded available backend in one piece.
func (rt *Router) queryBatch(ctx context.Context, qs []*graph.Graph) ([]server.QueryResponse, error) {
	tp := rt.topo.Load()
	groups := make(map[*backend][]int)
	if rt.opts.Mode == Shard {
		for i, q := range qs {
			b := tp.assign(rt.hash(q), rt.opts.QueueBound)
			if b == nil {
				return nil, errNoBackends
			}
			groups[b] = append(groups[b], i)
		}
	} else {
		b := tp.leastLoaded(nil)
		if b == nil {
			return nil, errNoBackends
		}
		idxs := make([]int, len(qs))
		for i := range idxs {
			idxs[i] = i
		}
		groups[b] = idxs
	}

	out := make([]server.QueryResponse, len(qs))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for b, idxs := range groups {
		wg.Add(1)
		go func(b *backend, idxs []int) {
			defer wg.Done()
			sub := make([]*graph.Graph, len(idxs))
			for k, i := range idxs {
				sub[k] = qs[i]
			}
			results, err := rt.queryGroup(ctx, tp, b, sub)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			for k, i := range idxs {
				out[i] = results[k]
			}
		}(b, idxs)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// ---- Overload shedding -------------------------------------------------

// admit reserves n queries of fleet-wide capacity, refusing when the
// admitted total would cross ShedThreshold — the front door's part of
// keeping tail latency bounded: past the point where every backend
// queue is expected full, refusing fast with a retry hint beats letting
// latency grow without bound. Pair a true return with done(n).
func (rt *Router) admit(n int) bool {
	if rt.admitted.Add(int64(n)) > int64(rt.opts.ShedThreshold) {
		rt.admitted.Add(int64(-n))
		rt.shed.Add(1)
		rt.met.shed.Inc()
		return false
	}
	return true
}

func (rt *Router) done(n int) { rt.admitted.Add(int64(-n)) }

// retryAfterSeconds is the Retry-After hint on 429/503 replies: long
// enough for a queue-depth spike to drain, short enough that honest
// clients come back promptly.
const retryAfterSeconds = 1

// writeShed answers 429 Too Many Requests with a Retry-After hint.
func writeShed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	server.WriteError(w, http.StatusTooManyRequests,
		fmt.Errorf("overloaded: fleet queue depth at bound; retry after %ds", retryAfterSeconds))
}

// ---- Handlers ----------------------------------------------------------

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	gs, decDur, ok := rt.wire.ReadGraphs(w, r, true)
	if !ok {
		return
	}
	if !rt.admit(1) {
		writeShed(w)
		return
	}
	defer rt.done(1)
	trace := r.URL.Query().Get("debug") == "trace"
	dispatchStart := time.Now()
	resp, addr, err := rt.queryOne(r.Context(), gs[0], trace)
	if err != nil {
		rt.replyDispatchError(w, err)
		return
	}
	if trace {
		// The backend's trace already carries the request id this
		// router's front door minted (it rode the dispatch header);
		// prepend the router's own spans so one response shows the whole
		// path. A backend that answered without a trace still gets the
		// router hop recorded.
		if resp.Trace == nil {
			resp.Trace = &telemetry.Trace{RequestID: telemetry.RequestIDFrom(r.Context())}
		}
		resp.Trace.Prepend(
			telemetry.Span{Name: "router:decode", DurNS: decDur.Nanoseconds()},
			telemetry.Span{Name: "router:dispatch " + addr, DurNS: time.Since(dispatchStart).Nanoseconds()},
		)
	}
	rt.wire.WriteResults(w, r, []server.QueryResponse{resp}, true)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	gs, _, ok := rt.wire.ReadGraphs(w, r, false)
	if !ok {
		return
	}
	if !rt.admit(len(gs)) {
		writeShed(w)
		return
	}
	defer rt.done(len(gs))
	if server.Accepts(r, server.ContentTypeNDJSON) {
		rt.streamBatch(w, r, gs)
		return
	}
	results, err := rt.queryBatch(r.Context(), gs)
	if err != nil {
		rt.replyDispatchError(w, err)
		return
	}
	rt.wire.WriteResults(w, r, results, false)
}

// handleStats aggregates every backend's /stats with the router's own
// counters. The payload is a JSON superset of the gcserved StatsResponse,
// so plain server.Client callers (gcquery -server) keep working. Stats
// are never shed — observability must survive overload.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	tp := rt.topo.Load()
	bs := tp.bs
	resp := StatsResponse{
		RouterMode: rt.opts.Mode.String(),
		Backends:   rt.backendStats(bs),
	}
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), rt.opts.ProbeTimeout)
			defer cancel()
			if st, err := b.cl.Stats(ctx); err == nil {
				// A stats reply doubles as an epoch observation — an
				// embedding that never mutates through this router still
				// converges its per-backend epoch view by polling /stats.
				b.noteEpoch(st.DatasetEpoch)
				resp.Backends[i].DatasetEpoch = b.epoch.Load()
				resp.Backends[i].Stats = &st
			}
		}(i, b)
	}
	wg.Wait()
	resp.FleetEpoch = tp.fleetEpoch()
	for _, bst := range resp.Backends {
		if bst.Stats == nil {
			continue
		}
		resp.Totals = addTotals(resp.Totals, bst.Stats.Totals)
		resp.Cached += bst.Stats.Cached
		if resp.Method == "" {
			resp.Method, resp.Mode = bst.Stats.Method, bst.Stats.Mode
		}
	}
	resp.Router = rt.Counters()
	resp.UptimeSeconds = time.Since(rt.start).Seconds()
	resp.GoVersion, resp.Build = telemetry.BuildInfo()
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The router speaks the binary wire to its clients regardless of
	// what its backends speak — it re-encodes between formats — so the
	// capability is advertised unconditionally.
	w.Header().Set(server.WireHeader, server.WireCapabilityBinary)
	if rt.availableCount() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no available backends")
		return
	}
	fmt.Fprintln(w, "ok")
}

// replyDispatchError maps a dispatch failure onto the client: a backend's
// 4xx is forwarded as-is (the request was at fault); saturation becomes
// 429 and an all-breakers-open fleet 503, both with Retry-After so a
// resilient client backs off and retries; anything else — dead backends,
// transport errors — becomes a 502.
func (rt *Router) replyDispatchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		server.WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errBreakerOpen), errors.Is(err, errNoBackends):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		server.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	var se *server.StatusError
	if errors.As(err, &se) && se.Code < 500 {
		server.WriteError(w, se.Code, errors.New(se.Msg))
		return
	}
	server.WriteError(w, http.StatusBadGateway, err)
}
