package router

import (
	"reflect"

	"graphcache/internal/core"
	"graphcache/internal/server"
)

// The router speaks the gcserved wire protocol verbatim on /query,
// /querybatch and /healthz, so every gcserved client works against a
// gcrouter unchanged. POST /mutate and GET /stats grow, and their
// payloads are JSON supersets of gcserved's because MutateResponse and
// StatsResponse embed gcserved's reply types and redeclare none of their
// fields: a /mutate reply carries gcserved's applied, epoch, seq,
// added_ids, removed_ids, extended, reverified, invalidated and
// window_patched for the fleet, plus one row per backend carrying the
// same keys and its address and error; a /stats reply carries gcserved's
// keys with the fleet-wide aggregates, plus per-backend detail and the
// router's own counters.

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

// MutateResponse is the router's POST /mutate payload: gcserved's
// MutateResponse for the fleet plus the per-backend fan-out detail.
// Applied is true when at least one backend applied the mutation (false
// for a fleet-wide duplicate-sequence replay); Epoch is the fleet epoch
// after the fan-out; Seq is the fleet-wide sequence number the mutation
// ran under — assigned by the router when the request carried none, so
// re-sending the request with it is idempotent on every backend.
// AddedIDs and RemovedIDs are those of a backend that landed at the
// fleet epoch, and the four maintenance counts are summed over the
// backends.
type MutateResponse struct {
	server.MutateResponse
	// Backends holds one row per backend the mutation was fanned to.
	Backends []MutateBackendResult `json:"backends"`
}

// MutateBackendResult is one backend's outcome in a mutation fan-out:
// its address, its own MutateResponse and its error.
type MutateBackendResult struct {
	Addr string `json:"addr"`
	server.MutateResponse
	// Error is the backend's failure, after the mutation client's
	// retries, empty on success; the row's Epoch is then the router's
	// last view of the backend. A failed backend is left lagging the
	// fleet epoch and therefore diverted; re-sending with the same seq
	// converges it.
	Error string `json:"error,omitempty"`
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

// StatsResponse is the router's GET /stats payload: gcserved's
// StatsResponse for the fleet — Totals and Cached summed over the
// answering backends, their method and mode, DatasetEpoch the fleet
// epoch, MutationSeq the highest backend's, Shed the router's own
// front-door sheds, and the uptime and build of this router process —
// plus per-backend detail and the router's own counters.
type StatsResponse struct {
	server.StatsResponse
	// FleetEpoch is the fleet's dataset epoch (max across backends).
	FleetEpoch int64          `json:"fleet_epoch"`
	Backends   []BackendStats `json:"backends"`
	Router     Counters       `json:"router"`
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
