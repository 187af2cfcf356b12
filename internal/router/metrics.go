package router

import (
	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// routerMetrics is gcrouter's metric surface: fleet-level routing
// counters, per-backend dispatch latency, and the engine-stage
// histograms reconstructed from backend replies — so one scrape of the
// router shows the fleet's query latency without scraping every
// backend. Served at GET /metrics on both the query and admin planes.
type routerMetrics struct {
	reg *telemetry.Registry

	// Engine stages and hits, folded from each successful reply's
	// QueryStats before the router answers its client. The GC stage's
	// finer split never crosses the wire.
	query *server.QueryMetrics

	// Routing plane.
	routed  *telemetry.Counter
	retried *telemetry.Counter
	shed    *telemetry.Counter

	// streamCancelled counts streamed batches cut short by a client
	// disconnect; the cancellation then propagates to the backends.
	streamCancelled *telemetry.Counter

	// Mutation ingress.
	mutations       *telemetry.Counter
	mutationsFailed *telemetry.Counter

	brOpened   *telemetry.Counter
	brHalfOpen *telemetry.Counter
	brClosed   *telemetry.Counter

	remapJoin  *telemetry.Counter
	remapDrain *telemetry.Counter
}

func newRouterMetrics(reg *telemetry.Registry) *routerMetrics {
	const brName = "graphcache_router_breaker_transitions_total"
	const brHelp = "Circuit-breaker state transitions, fleet-wide, by target state."
	br := func(s string) *telemetry.Counter {
		return reg.Counter(brName, brHelp, telemetry.L("state", s))
	}
	const remapName = "graphcache_router_ring_remaps_total"
	const remapHelp = "Consistent-hash ring rebuilds, by topology change."
	return &routerMetrics{
		reg:   reg,
		query: server.NewQueryMetrics(reg),

		routed:  reg.Counter("graphcache_router_routed_total", "Queries dispatched to their assigned backend."),
		retried: reg.Counter("graphcache_router_retried_total", "Queries re-dispatched after a failed attempt."),
		shed:    reg.Counter("graphcache_router_shed_total", "Requests refused with 429 at the front door."),

		streamCancelled: reg.Counter("graphcache_router_stream_cancelled_total",
			"Streamed batches cut short because the client went away."),

		mutations:       reg.Counter("graphcache_router_mutations_total", "Dataset-mutation fan-outs completed."),
		mutationsFailed: reg.Counter("graphcache_router_mutations_failed_total", "Mutation fan-outs that failed on at least one backend."),

		brOpened:   br("open"),
		brHalfOpen: br("half_open"),
		brClosed:   br("closed"),

		remapJoin:  reg.Counter(remapName, remapHelp, telemetry.L("op", "join")),
		remapDrain: reg.Counter(remapName, remapHelp, telemetry.L("op", "drain")),
	}
}

// dispatchHist returns the per-backend dispatch latency histogram —
// wall time of one dispatch attempt through queue, breaker and HTTP
// round-trip. Get-or-create in the registry, so a backend re-joining
// under the same address keeps accumulating its old series.
func (m *routerMetrics) dispatchHist(addr string) *telemetry.Histogram {
	return m.reg.Histogram("graphcache_router_dispatch_seconds",
		"Dispatch attempt latency through queue, breaker and backend round-trip.",
		nil, telemetry.L("backend", addr))
}

// onTransition is the breakers' transition callback: every state change
// anywhere in the fleet lands in one labelled counter family.
func (m *routerMetrics) onTransition(to State) {
	switch to {
	case StateOpen:
		m.brOpened.Inc()
	case StateHalfOpen:
		m.brHalfOpen.Inc()
	case StateClosed:
		m.brClosed.Inc()
	}
}
