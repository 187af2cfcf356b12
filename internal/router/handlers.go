package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// Counters returns the router's lifetime routing counters, read from
// the telemetry counters /metrics exports. Ejected is the fleet-wide
// breaker-open transition counter, so backends since drained stay in it
// and it never runs backwards across topology changes.
func (rt *Router) Counters() Counters {
	m := rt.met
	return Counters{
		Routed:    int64(m.routed.Value()),
		Retried:   int64(m.retried.Value()),
		Shed:      int64(m.shed.Value()),
		Mutations: int64(m.mutations.Value()),
		Ejected:   int64(m.brOpened.Value()),
	}
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
			Pending:      int64(len(b.slots)),
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

// serveQueries answers POST /query and POST /querybatch alike: the
// request's queries are grouped by the routing rule and each group is one
// /querybatch dispatch, so a single query is a group of one. The route
// decides only the reply envelope and /query's one-graph check. With
// ?debug=trace each result's trace starts with the router's spans:
// router:decode — reading the request: splitting and keying a binary
// frame, or parsing and transcoding a text one — then router:dispatch
// and the address of the backend that answered.
func (rt *Router) serveQueries(w http.ResponseWriter, r *http.Request) {
	single := server.IsSingleQuery(r)
	qs, decDur, ok := rt.wire.ReadBodies(w, r, single)
	if !ok {
		return
	}
	tp := rt.topo.Load()
	if !rt.admit(tp, len(qs)) {
		writeShed(w)
		return
	}
	defer rt.done(len(qs))
	trace := server.WantsTrace(r)
	results, err := rt.queryBatch(r.Context(), tp, qs, trace)
	if err != nil {
		rt.replyDispatchError(w, err)
		return
	}
	if trace {
		decode := telemetry.Span{Name: "router:decode", DurNS: decDur.Nanoseconds()}
		for i := range results {
			results[i].Trace.Prepend(decode)
		}
	}
	rt.wire.WriteResults(w, len(results), single, func(i int) server.QueryResponse { return results[i] })
}

// handleStats aggregates every backend's /stats with the router's own
// counters. The payload embeds gcserved's StatsResponse, so plain
// server.Client callers (gcquery -server) read the fleet's figures.
// Stats are never shed — observability must survive overload.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	tp := rt.topo.Load()
	stats := rt.fetchStats(r.Context(), tp.bs)
	resp := StatsResponse{FleetEpoch: tp.fleetEpoch(), Backends: rt.backendStats(tp.bs), Router: rt.Counters()}
	for i, st := range stats {
		if st == nil {
			continue
		}
		resp.Backends[i].Stats = st
		resp.Totals = addTotals(resp.Totals, st.Totals)
		resp.Cached += st.Cached
		resp.MutationSeq = max(resp.MutationSeq, st.MutationSeq)
		if resp.Method == "" {
			resp.Method, resp.Mode = st.Method, st.Mode
		}
	}
	resp.DatasetEpoch, resp.Shed = resp.FleetEpoch, resp.Router.Shed
	resp.UptimeSeconds = time.Since(rt.start).Seconds()
	resp.GoVersion, resp.Build = telemetry.BuildInfo()
	server.WriteJSON(w, http.StatusOK, resp)
}

// fetchStats asks every backend of bs for its /stats, each within the
// probe timeout; an entry is nil where the backend did not answer. A
// stats reply doubles as an epoch observation, so an embedding that
// never mutates through this router still converges its per-backend
// epoch view by polling /stats.
func (rt *Router) fetchStats(ctx context.Context, bs []*backend) []*server.StatsResponse {
	out := make([]*server.StatsResponse, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, rt.tun.probeTimeout)
			defer cancel()
			if st, err := b.cl.Stats(sctx); err == nil {
				b.noteEpoch(st.DatasetEpoch)
				out[i] = &st
			}
		}()
	}
	wg.Wait()
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
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
