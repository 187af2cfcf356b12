package graphcache

import (
	"time"

	"graphcache/internal/router"
	"graphcache/internal/server"
)

// Server serves one Cache over HTTP — the gcserved subsystem: a JSON API
// over the t/v/e graph wire format (POST /query, POST /querybatch,
// GET /stats, GET /healthz) that runs each request as one run of the
// pipeline on the request's own goroutine (a single query is a run of
// one, and concurrent requests run side by side), and the snapshot
// lifecycle of the paper's Cache Manager (Start loads cache contents from
// disk, Shutdown drains in-flight requests and writes them back). See the package documentation's "Serving over the network"
// section and cmd/gcserved for the standalone daemon.
type Server = server.Server

// ServerOptions configures a Server: listen address, snapshot and journal
// paths, the snapshot interval, the shed threshold, the logger and pprof.
// MaxBatch and MaxDelay are deprecated and ignored: no query is held to
// share a run with another.
type ServerOptions = server.Options

// ServerClient is the Go client for a gcserved instance, used by tests,
// by `gcquery -server` and by applications. It retries refused work
// (429/503) and, for idempotent requests, transport failures, with
// jittered exponential backoff honouring Retry-After hints. It sends
// requests in either wire format — the JSON/t-v-e default or binary
// frames (ServerClientOptions.WireBinary) — and reads one JSON reply per
// request, a batch's whole. It speaks HTTP/1.1 to http:// servers only, over a keep-alive pool every client in the
// process shares, and ignores proxy environment variables (see the
// package documentation's "Serving tier" section).
type ServerClient = server.Client

// ServerClientOptions configures a ServerClient's resilience and wire
// format: per-attempt request timeout, the retry budget/backoff
// envelope, and WireBinary to send binary request frames (answers are
// identical either way; see the package documentation's "Wire protocol"
// section).
type ServerClientOptions = server.ClientOptions

// ServerStatusError is a non-2xx reply from a gcserved or gcrouter,
// carrying the HTTP status code, the server's error message and its
// Retry-After hint. Unwrap client errors with errors.As to tell an
// overload refusal (429/503) from a request fault (other 4xx).
type ServerStatusError = server.StatusError

// ServerQueryResponse is one served query's answer and statistics.
type ServerQueryResponse = server.QueryResponse

// ServerStatsResponse is the GET /stats payload: lifetime totals plus the
// serving configuration summary.
type ServerStatsResponse = server.StatsResponse

// ServerWarmResponse reports a completed snapshot warm-up (POST /warm or
// Server.WarmFrom): the peer the snapshot was shipped from and how many
// cached queries were installed.
type ServerWarmResponse = server.WarmResponse

// NewServer wraps a Cache in an HTTP serving front end. Run the daemon
// lifecycle with Start, Serve and Shutdown, or embed Handler in an
// existing mux.
func NewServer(c *Cache, opts ServerOptions) *Server { return server.New(c, opts) }

// NewServerClient returns a client for the gcserved at addr — a
// "host:port" pair or a full "http://..." base URL; any other scheme
// fails every call — with default resilience options.
func NewServerClient(addr string) *ServerClient { return server.NewClient(addr) }

// NewServerClientWith returns a client for the gcserved at addr with
// explicit resilience options.
func NewServerClientWith(addr string, opts ServerClientOptions) *ServerClient {
	return server.NewClientWith(addr, opts)
}

// ServerMutateRequest is the POST /mutate body accepted by gcserved and
// gcrouter alike: op ("add", "remove" or "edit"), graphs in t/v/e text
// for add/edit, target IDs for remove/edit, and an optional monotone
// Seq for idempotent replay. Submit with ServerClient.Mutate.
type ServerMutateRequest = server.MutateRequest

// ServerMutateResponse reports one applied (or deduplicated) mutation.
// It is the MutationResult ApplyMutation returned, and gcserved's
// POST /mutate reply is its JSON encoding: applied, epoch, seq,
// added_ids, removed_ids and the cache-maintenance counts extended,
// reverified, invalidated and window_patched (the in-process
// EntriesTouched and Duration stay off the wire).
type ServerMutateResponse = server.MutateResponse

// RouterMutateResponse is the router's POST /mutate reply. It embeds
// ServerMutateResponse, filled with the fleet's outcome — the fleet
// epoch, the IDs of a backend that landed at it, the maintenance counts
// summed over the backends — so it is a JSON superset of gcserved's
// reply and a plain ServerClient reads it unchanged; it adds one
// RouterMutateBackendResult row per backend.
type RouterMutateResponse = router.MutateResponse

// RouterMutateBackendResult is one backend's outcome within a fleet
// mutation fan-out: its address, its own ServerMutateResponse, and its
// error if the fan-out leg failed (leaving it lagging and diverted).
type RouterMutateBackendResult = router.MutateBackendResult

// DefaultCoalesceDelay was the default of ServerOptions.MaxDelay, the
// longest a request coalescer held a query behind a busy engine. gcserved
// holds no query.
//
// Deprecated: ignored.
const DefaultCoalesceDelay = 2 * time.Millisecond

// Router fronts N gcserved backends behind the same wire API — the
// gcrouter serving tier: every query, single or batched, routed to its
// ring home by key affinity, per-backend circuit breakers with half-open
// readmission, bounded dispatch queues with backpressure, front-door
// overload shedding, failover re-dispatch and an aggregated /stats. Any ServerClient works
// against a Router unchanged. See the package documentation's "Serving
// tier" and "Load management" sections and cmd/gcrouter for the
// standalone daemon.
type Router = router.Router

// RouterOptions configures a Router: listen address, backend list,
// admin listen address and logger. Load management (probes, breakers,
// dispatch slots, shedding) runs on fixed constants; see the package
// documentation's "Load management" section.
type RouterOptions = router.Options

// RouterMode was the Router's routing-mode selector. A Router has one
// routing rule: each query, single or batched, goes to its ring home,
// diverted to the least-loaded backend only while that home is
// unavailable, lagging or saturated.
//
// Deprecated: ignored.
type RouterMode = router.Mode

// RouteReplicate was the default RouterMode.
//
// Deprecated: ignored.
const RouteReplicate = router.Replicate

// RouterStatsResponse is the router's aggregated GET /stats payload. It
// embeds ServerStatsResponse, filled with the fleet's figures (totals
// and cached summed over the backends, dataset_epoch the fleet epoch,
// mutation_seq the highest backend's, shed the router's front-door
// sheds), so it is a JSON superset of gcserved's reply; it adds the
// fleet epoch, per-backend detail and the router's own counters.
type RouterStatsResponse = router.StatsResponse

// RouterCounters are the router's lifetime routing counters (routed,
// retried, ejected — breaker opens — and shed), as returned by
// Router.Counters.
type RouterCounters = router.Counters

// RouterBackendStats is one backend's row in the router's view: breaker
// state, transition counters, and queue depth, as returned by
// Router.BackendStats and embedded per backend in RouterStatsResponse.
type RouterBackendStats = router.BackendStats

// RouterBreakerStats is one backend's circuit-breaker observability row:
// current state plus monotone open/half-open/close transition counters,
// so a poller detects breaker cycles it never saw live.
type RouterBreakerStats = router.BreakerStats

// RouterJoinRequest is the admin API's POST /backends body: the gcserved
// address joining the fleet.
type RouterJoinRequest = router.JoinRequest

// RouterJoinResponse reports a completed fleet join (Router.Join or the
// admin API's POST /backends): the new backend's address, the peer it
// was warmed from, and how many cached queries it ingested before its
// first dispatch.
type RouterJoinResponse = router.JoinResponse

// RouterTopologyResponse is the admin API's GET /topology payload: the
// fleet as the router sees it right now, one RouterBackendStats row per
// backend (draining backends included).
type RouterTopologyResponse = router.TopologyResponse

// NewRouter builds the gcrouter serving tier over running gcserved
// backends. Run the daemon lifecycle with Start, Serve and Shutdown, or
// embed Handler in an existing mux.
func NewRouter(opts RouterOptions) (*Router, error) { return router.New(opts) }
