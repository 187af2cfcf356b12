package router

import (
	"reflect"

	"graphcache/internal/core"
	"graphcache/internal/server"
)

// The router speaks the gcserved wire protocol verbatim on /query,
// /querybatch and /healthz, so every gcserved client works against a
// gcrouter unchanged. Only GET /stats grows: its payload is a strict
// JSON superset of the gcserved StatsResponse — the familiar totals /
// cached / method / mode fields hold the fleet-wide aggregates — plus
// per-backend detail and the router's own counters.

// Counters are the router's lifetime routing counters.
type Counters struct {
	// Routed counts queries dispatched to their assigned backend
	// (each query of a batch counts once).
	Routed int64 `json:"routed"`
	// Retried counts queries re-dispatched to another backend after a
	// failed attempt (backend failure, saturated queue or open breaker).
	Retried int64 `json:"retried"`
	// Mutations counts dataset-mutation fan-outs completed through this
	// router (each POST /mutate counts once, however many backends it
	// reached).
	Mutations int64 `json:"mutations"`
	// Ejected counts breaker opens fleet-wide — transitions out of
	// service, whether tripped by failed probes or failed dispatches.
	Ejected int64 `json:"ejected"`
	// Shed counts requests refused with 429 at the front door because
	// fleet-wide admitted work crossed the shed threshold.
	Shed int64 `json:"shed"`
}

// BreakerStats is one backend's circuit-breaker row in /stats: the
// current state, the lifetime transition counters (monotone, so a
// poller observes open → half-open → closed cycles it never saw live)
// and the sliding error-budget window's tallies.
type BreakerStats struct {
	State string `json:"state"` // closed, open or half-open
	// StateAgeSeconds is how long the breaker has held its current
	// state — an operator reading /topology distinguishes a backend that
	// just opened (transient blip) from one open for minutes (dead).
	StateAgeSeconds float64 `json:"state_age_seconds"`
	BreakerCounts
	WindowOK   int64 `json:"window_ok"`
	WindowFail int64 `json:"window_fail"`
}

// BackendStats is one backend's row in the aggregated /stats reply.
type BackendStats struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"` // breaker closed (kept for wire compatibility)
	// Draining marks a backend being removed: it takes no new
	// dispatches and leaves the topology once its in-flight work ends.
	Draining bool `json:"draining,omitempty"`
	// DatasetEpoch is the backend's dataset epoch as last observed by the
	// router (mutate replies, stats replies, health-probe headers). A
	// backend below the fleet maximum is lagging and diverted from query
	// assignment until it catches up.
	DatasetEpoch int64        `json:"dataset_epoch"`
	Pending      int64        `json:"pending"` // dispatches holding one of the backend's slots
	Queued       int64        `json:"queued"`  // dispatches waiting for a queue slot
	Breaker      BreakerStats `json:"breaker"`
	// Stats is the backend's own /stats reply; nil when the backend did
	// not answer within the probe timeout.
	Stats *server.StatsResponse `json:"stats,omitempty"`
}

// JoinRequest is the body of the admin POST /backends: the gcserved
// address to add to the fleet.
type JoinRequest struct {
	Addr string `json:"addr"`
}

// JoinResponse reports a completed join: where the new backend was
// warmed from and how many cached queries it ingested before its first
// dispatch.
type JoinResponse struct {
	Addr       string `json:"addr"`
	WarmedFrom string `json:"warmed_from"`
	Cached     int    `json:"cached"`
	// Epoch is the dataset epoch the joiner landed at. The warm-up's
	// snapshot carries the peer's epoch and mutation sequence, so a
	// joiner lands at the fleet epoch — when it does not (a mutation
	// raced the warm), it is admitted but diverted until re-warmed.
	Epoch int64 `json:"epoch,omitempty"`
}

// MutateResponse is the router's POST /mutate payload: a strict JSON
// superset of the gcserved MutateResponse — applied / epoch / seq and
// the summed invalidation counts read the same through a plain
// server.Client — plus the per-backend fan-out detail.
type MutateResponse struct {
	// Applied is true when at least one backend applied the mutation
	// (false for a fleet-wide duplicate-sequence replay).
	Applied bool `json:"applied"`
	// Epoch is the fleet dataset epoch after the fan-out.
	Epoch int64 `json:"epoch"`
	// Seq is the fleet-wide sequence number this mutation ran under —
	// assigned by the router when the request carried none. Re-sending
	// the request with this Seq is idempotent on every backend.
	Seq int64 `json:"seq"`
	// Extended, Reverified and Invalidated sum the per-backend cache
	// adjustment counts.
	Extended    int `json:"entries_extended,omitempty"`
	Reverified  int `json:"entries_reverified,omitempty"`
	Invalidated int `json:"entries_invalidated,omitempty"`
	// Backends holds one row per backend the mutation was fanned to.
	Backends []MutateBackendResult `json:"backends"`
}

// MutateBackendResult is one backend's outcome in a mutation fan-out.
type MutateBackendResult struct {
	Addr    string `json:"addr"`
	Applied bool   `json:"applied"`
	Epoch   int64  `json:"epoch"`
	// Error is the backend's failure, after the mutation client's
	// retries, empty on success. A failed backend is left lagging the
	// fleet epoch and therefore diverted; re-sending with the same seq
	// converges it.
	Error       string `json:"error,omitempty"`
	Extended    int    `json:"entries_extended,omitempty"`
	Reverified  int    `json:"entries_reverified,omitempty"`
	Invalidated int    `json:"entries_invalidated,omitempty"`
}

// DrainResponse reports a completed admin DELETE /backends/{id}.
type DrainResponse struct {
	Addr    string `json:"addr"`
	Drained bool   `json:"drained"`
}

// TopologyResponse is the admin GET /topology payload: the fleet as the
// router sees it right now.
type TopologyResponse struct {
	// FleetEpoch is the fleet's dataset epoch — the maximum across
	// backends; compare it with each backend row's dataset_epoch to spot
	// laggards.
	FleetEpoch int64          `json:"fleet_epoch"`
	Backends   []BackendStats `json:"backends"`
}

// StatsResponse is the router's GET /stats payload.
type StatsResponse struct {
	Totals core.Totals `json:"totals"` // summed over answering backends
	Cached int         `json:"cached"` // summed cached-query counts
	Method string      `json:"method"`
	Mode   string      `json:"mode"` // the *method* mode, as in gcserved

	// FleetEpoch is the fleet's dataset epoch (max across backends).
	FleetEpoch int64          `json:"fleet_epoch"`
	Backends   []BackendStats `json:"backends"`
	Router     Counters       `json:"router"`

	// UptimeSeconds is how long this router process has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// GoVersion and Build identify the running binary (toolchain
	// version, main module@version plus VCS revision when stamped).
	GoVersion string `json:"go_version"`
	Build     string `json:"build"`
}

// addTotals sums two cache lifetime totals field by field. It walks the
// struct by reflection so a counter added to core.Totals in a later
// change is aggregated here automatically instead of silently dropped;
// every field is an integer kind (int64 or time.Duration), which a test
// pins.
func addTotals(a, b core.Totals) core.Totals {
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Field(i)
		f.SetInt(f.Int() + bv.Field(i).Int())
	}
	return a
}
