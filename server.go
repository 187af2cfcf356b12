package graphcache

import (
	"time"

	"graphcache/internal/router"
	"graphcache/internal/server"
)

// Server serves one Cache over HTTP — the gcserved subsystem: a JSON API
// over the t/v/e graph wire format (POST /query, POST /querybatch,
// GET /stats, GET /healthz), a request coalescer that runs a lone query
// at once and folds the queries arriving while the engine is busy into one
// batched run of the pipeline, and
// the snapshot lifecycle of the paper's Cache Manager (Start loads cache
// contents from disk, Shutdown drains in-flight requests and writes them
// back). See the package documentation's "Serving over the network"
// section and cmd/gcserved for the standalone daemon.
type Server = server.Server

// ServerOptions configures a Server: listen address, snapshot path, and
// the coalescer's bounds — MaxBatch on a run's size, MaxDelay on how long a
// query may be held behind a busy engine (an idle one never holds it).
type ServerOptions = server.Options

// ServerClient is the Go client for a gcserved instance, used by tests,
// by `gcquery -server` and by applications. It retries refused work
// (429/503) and, for idempotent requests, transport failures, with
// jittered exponential backoff honouring Retry-After hints. It sends
// requests in either wire format — the JSON/t-v-e default or binary
// frames (ServerClientOptions.WireBinary) — reads JSON replies, and
// streams batches incrementally with QueryBatchStream.
type ServerClient = server.Client

// ServerClientOptions configures a ServerClient's resilience and wire
// format: per-attempt request timeout, the retry budget/backoff
// envelope, and WireBinary to send binary request frames (answers are
// identical either way; see the package documentation's "Wire protocol"
// section).
type ServerClientOptions = server.ClientOptions

// ServerStreamResult is one result of a streamed batch
// (ServerClient.QueryBatchStream, or POST /querybatch with
// Accept: application/x-ndjson on the wire): the answer for the
// Index-th query, delivered as soon as its verification completed.
type ServerStreamResult = server.StreamResult

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
// "host:port" pair or a full "http://..." base URL — with default
// resilience options.
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

// ServerMutateResponse reports one applied (or deduplicated) mutation:
// whether it applied, the dataset epoch it landed at, the sequence
// number consumed, and the cache-maintenance counts.
type ServerMutateResponse = server.MutateResponse

// RouterMutateResponse is the router's POST /mutate reply: the fleet
// outcome (a JSON superset of ServerMutateResponse, so a plain
// ServerClient works against a router unchanged) plus one
// RouterMutateBackendResult row per backend.
type RouterMutateResponse = router.MutateResponse

// RouterMutateBackendResult is one backend's outcome within a fleet
// mutation fan-out: applied or not, the epoch it reached, and its error
// if the fan-out leg failed (leaving it lagging and diverted).
type RouterMutateBackendResult = router.MutateBackendResult

// DefaultCoalesceDelay is a reasonable bound on how long the request
// coalescer may hold a query behind a busy engine: long enough for the
// queries of a burst to share the next run, short enough that one slow
// verification ahead of them stays invisible next to sub-iso costs.
const DefaultCoalesceDelay = 2 * time.Millisecond

// Router fronts N gcserved backends behind the same wire API — the
// gcrouter serving tier: key affinity or shard routing,
// per-backend circuit breakers with half-open readmission, bounded
// dispatch queues with backpressure, front-door overload shedding,
// failover re-dispatch and an aggregated /stats. Any ServerClient works
// against a Router unchanged. See the package documentation's "Serving
// tier" and "Load management" sections and cmd/gcrouter for the
// standalone daemon.
type Router = router.Router

// RouterOptions configures a Router: listen address, backend list,
// routing mode, health-probe cadence, and the load-management knobs
// (queue bound, error budget, breaker window/cooldown, shed threshold).
type RouterOptions = router.Options

// RouterMode selects how a Router spreads queries over its backends.
type RouterMode = router.Mode

const (
	// RouteReplicate treats every backend as a full cache replica
	// (affinity-routed singles, whole batches to the least-pending
	// backend).
	RouteReplicate = router.Replicate
	// RouteShard partitions queries across backends by key
	// (batches split per backend and scatter-gathered).
	RouteShard = router.Shard
)

// RouterStatsResponse is the router's aggregated GET /stats payload: a
// JSON superset of ServerStatsResponse with per-backend detail and the
// router's own counters.
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

// ParseRouterMode converts a mode name ("replicate" or "shard") into a
// RouterMode.
func ParseRouterMode(s string) (RouterMode, error) { return router.ParseMode(s) }
