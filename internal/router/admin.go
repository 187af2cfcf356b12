package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"graphcache/internal/server"
)

// Live topology: the admin API grows and shrinks the fleet without a
// router restart.
//
//   - Join (POST /backends) is warm-then-serve: the joiner must be up,
//     is warmed from a healthy peer's snapshot (its cache starts where
//     the fleet already is, not cold), must pass /healthz again, and
//     only then is added to the ring — so its first dispatch ever hits
//     a warmed cache.
//   - Drain (DELETE /backends/{id}) is drain-then-remove: the backend
//     stops receiving new dispatches immediately (available() goes
//     false), in-flight dispatches finish under a deadline, and only
//     then is it removed from the ring — so a drain fails zero requests
//     and remaps only the departing backend's ~1/N of the keys.
//
// Both serialise on topoMu; the query hot path never takes that lock —
// it reads one atomic topology generation per request.

const (
	// warmTimeout bounds a joining backend's snapshot warm-up — the
	// joiner's fetch-and-load of a healthy peer's snapshot.
	warmTimeout = 60 * time.Second
	// drainTimeout bounds how long a drain waits for a departing
	// backend's in-flight dispatches after new dispatches stop.
	drainTimeout = 30 * time.Second
)

var (
	// ErrBackendExists is returned by Join for an address already in the
	// fleet.
	ErrBackendExists = errors.New("router: backend already in the fleet")
	// ErrUnknownBackend is returned by Drain for an address not in the
	// fleet.
	ErrUnknownBackend = errors.New("router: no such backend")
	// ErrLastBackend is returned by Drain when removing the address
	// would leave the fleet empty.
	ErrLastBackend = errors.New("router: cannot drain the last backend")
	// ErrNoWarmSource is returned by Join when no healthy peer can ship
	// the joiner a snapshot.
	ErrNoWarmSource = errors.New("router: no healthy peer to warm the joiner from")
)

// Join adds the gcserved at addr to the fleet: verify it is up, warm it
// from a healthy peer's snapshot, re-verify health, then put it on the
// ring. The joiner serves its first query only after it has ingested the
// peer snapshot — a fresh replica never serves cold traffic.
func (rt *Router) Join(ctx context.Context, addr string) (JoinResponse, error) {
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()

	cur := rt.topo.Load()
	if cur.find(addr) != nil {
		return JoinResponse{}, fmt.Errorf("%w: %s", ErrBackendExists, addr)
	}
	nb := rt.newBackend(addr)

	hctx, cancel := context.WithTimeout(ctx, rt.tun.probeTimeout)
	err := nb.cl.Healthz(hctx)
	cancel()
	if err != nil {
		return JoinResponse{}, fmt.Errorf("router: joiner %s failed health check: %w", addr, err)
	}

	src := warmSource(cur)
	if src == nil {
		return JoinResponse{}, ErrNoWarmSource
	}
	wctx, cancel := context.WithTimeout(ctx, warmTimeout)
	warm, err := nb.cl.Warm(wctx, src.addr)
	cancel()
	if err != nil {
		return JoinResponse{}, fmt.Errorf("router: warming joiner %s from %s: %w", addr, src.addr, err)
	}
	// The peer's snapshot carries its dataset epoch and mutation
	// sequence (GET /snapshot ships the mutation delta inline), so the
	// warm is also the joiner's catch-up: it lands at the peer's epoch
	// with replayed-mutation dedupe state intact — no separate journal
	// shipping step.
	nb.noteEpoch(warm.Epoch)

	// Health may have changed across the warm (the joiner swapped its
	// whole cache); admission to the ring requires passing /healthz
	// *after* the snapshot is in.
	hctx, cancel = context.WithTimeout(ctx, rt.tun.probeTimeout)
	epoch, err := nb.cl.HealthzEpoch(hctx)
	cancel()
	if err != nil {
		return JoinResponse{}, fmt.Errorf("router: joiner %s unhealthy after warm-up: %w", addr, err)
	}
	nb.noteEpoch(epoch)
	nb.br.Record(true) // seed the breaker window with the observed health

	// Publish under mutMu so ring admission serialises with mutation
	// fan-outs: a concurrent mutation either completed before the warm
	// cut its snapshot (the joiner has it) or starts after the joiner is
	// in the topology (the fan reaches it). A mutation that raced the
	// warm itself leaves the joiner lagging — admitted but diverted, and
	// flagged here, until a re-warm or the next fan catches it up.
	rt.mutMu.Lock()
	if fe := cur.fleetEpoch(); nb.epoch.Load() < fe {
		rt.opts.Logger.Warn("joiner lags fleet epoch; queries divert around it",
			"component", "gcrouter", "backend", addr,
			"epoch", nb.epoch.Load(), "fleet_epoch", fe)
	}
	bs := make([]*backend, len(cur.bs), len(cur.bs)+1)
	copy(bs, cur.bs)
	bs = append(bs, nb)
	rt.topo.Store(newTopology(bs))
	rt.mutMu.Unlock()
	rt.met.remapJoin.Inc()
	rt.opts.Logger.Info("backend joined",
		"component", "gcrouter", "backend", addr,
		"warmed_from", src.addr, "cached", warm.Cached,
		"epoch", nb.epoch.Load(), "fleet_size", len(bs))
	return JoinResponse{Addr: addr, WarmedFrom: src.addr, Cached: warm.Cached, Epoch: nb.epoch.Load()}, nil
}

// warmSource picks the healthiest peer to ship a snapshot from: a
// non-draining backend with a closed breaker, least-loaded first.
func warmSource(tp *topology) *backend {
	var best *backend
	var bestN int64
	for _, b := range tp.bs {
		if b.draining.Load() || b.br.State() != StateClosed {
			continue
		}
		if n := b.load(); best == nil || n < bestN {
			best, bestN = b, n
		}
	}
	return best
}

// Drain removes the backend at addr from the fleet: stop new dispatches
// at once, wait for its in-flight dispatches to finish (bounded by ctx
// and drainTimeout), then take it off the ring. Requests never fail on
// account of a drain — they divert to the survivors exactly as they
// would around an open breaker. The wait timing out is reported, but
// the removal stands either way.
func (rt *Router) Drain(ctx context.Context, addr string) error {
	rt.topoMu.Lock()
	cur := rt.topo.Load()
	b := cur.find(addr)
	if b == nil {
		rt.topoMu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownBackend, addr)
	}
	if len(cur.bs) == 1 {
		rt.topoMu.Unlock()
		return ErrLastBackend
	}
	b.draining.Store(true) // stop new dispatches, even via older topology snapshots
	rt.topoMu.Unlock()

	// Wait outside the lock — a slow drain must not block a concurrent
	// join. The backend is still in the topology (shown as draining in
	// /stats), just ineligible for dispatch.
	err := awaitIdle(ctx, b, drainTimeout)

	rt.topoMu.Lock()
	cur = rt.topo.Load()
	bs := make([]*backend, 0, len(cur.bs))
	for _, o := range cur.bs {
		if o != b {
			bs = append(bs, o)
		}
	}
	if len(bs) < len(cur.bs) {
		rt.topo.Store(newTopology(bs))
		rt.met.remapDrain.Inc()
		rt.opts.Logger.Info("backend drained",
			"component", "gcrouter", "backend", addr, "fleet_size", len(bs))
	}
	rt.topoMu.Unlock()
	if err != nil {
		return fmt.Errorf("router: backend %s removed, but its in-flight dispatches did not drain: %w", addr, err)
	}
	return nil
}

// awaitIdle polls until b has no queued or in-flight dispatches.
func awaitIdle(ctx context.Context, b *backend, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for b.load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return fmt.Errorf("still %d in flight after %v", b.load(), timeout)
		case <-tick.C:
		}
	}
	return nil
}

// Topology returns the router's current fleet view — the same rows as
// BackendStats, under the admin API's GET /topology.
func (rt *Router) Topology() TopologyResponse {
	tp := rt.topo.Load()
	return TopologyResponse{
		FleetEpoch: tp.fleetEpoch(),
		Backends:   rt.backendStats(tp.bs),
	}
}

// ---- Admin handlers ------------------------------------------------------

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !server.ReadJSON(w, r, server.RequestBodyLimit, &req) {
		return
	}
	if req.Addr == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("missing backend addr"))
		return
	}
	resp, err := rt.Join(r.Context(), req.Addr)
	if err != nil {
		server.WriteError(w, adminStatus(err), err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("id")
	if err := rt.Drain(r.Context(), addr); err != nil {
		server.WriteError(w, adminStatus(err), err)
		return
	}
	server.WriteJSON(w, http.StatusOK, DrainResponse{Addr: addr, Drained: true})
}

func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, rt.Topology())
}

// adminStatus maps a topology-change failure to its HTTP status.
func adminStatus(err error) int {
	switch {
	case errors.Is(err, ErrBackendExists), errors.Is(err, ErrLastBackend):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownBackend):
		return http.StatusNotFound
	case errors.Is(err, ErrNoWarmSource):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}
