package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"graphcache/internal/server"
)

// Mutation fan-out: the router is the fleet's mutation ingress. One
// POST /mutate is assigned the next fleet-wide monotone sequence number
// and dispatched to every backend — draining ones included, since they
// may still answer queries racing the drain — with jittered idempotent
// retries per backend (the mutation client's MaxRetries). Sequence
// numbers make the fan idempotent end to end: a backend that already
// applied seq s answers applied=false, so a router-level retry (the
// operator re-sending with the returned seq) converges the fleet
// instead of double-applying.
//
// The sequence counter is seeded lazily from the fleet's own /stats
// (the maximum mutation_seq across answering backends), so a restarted
// router never hands out a number the fleet already consumed. The
// router is assumed to be the fleet's only mutation ingress; a backend
// mutated behind its back simply runs ahead, which the epoch feed
// observes and the seed honors.
//
// A backend that fails all retries is left lagging the fleet epoch, so
// query assignment diverts around it (router.go) — partial fan-out
// failure degrades capacity, never soundness.

// mutateRetries is how many times the per-backend mutation client
// re-attempts one dispatch (jittered exponential backoff) before the
// backend is reported failed and left lagging.
const mutateRetries = 3

// Mutate fans one dataset mutation to every backend in the current
// topology under the fleet-wide sequence number — req.Seq when the
// caller set one (an idempotent retry), the next fresh number
// otherwise. The returned response always carries the sequence number
// used; a non-nil error means at least one backend did not confirm, and
// re-sending with that sequence number is safe on all of them.
func (rt *Router) Mutate(ctx context.Context, req server.MutateRequest) (MutateResponse, error) {
	rt.mutMu.Lock()
	defer rt.mutMu.Unlock()
	if !rt.mutSeqSeeded {
		if err := rt.seedMutSeq(ctx); err != nil {
			return MutateResponse{}, err
		}
	}
	seq := req.Seq
	if seq == 0 {
		seq = rt.mutSeq + 1
	}
	if seq > rt.mutSeq {
		rt.mutSeq = seq
	}
	req.Seq = seq

	tp := rt.topo.Load()
	results := make([]MutateBackendResult, len(tp.bs))
	errs := make([]error, len(tp.bs))
	var wg sync.WaitGroup
	for i, b := range tp.bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i].Addr = b.addr
			mr, err := b.mcl.Mutate(ctx, req)
			if err != nil {
				results[i].Epoch, results[i].Error, errs[i] = b.epoch.Load(), err.Error(), err
				return
			}
			b.noteEpoch(mr.Epoch)
			results[i].MutateResponse = mr
		}()
	}
	wg.Wait()
	rt.met.mutations.Inc()

	resp := MutateResponse{Backends: results}
	resp.Seq, resp.Epoch = seq, tp.fleetEpoch()
	var failed []string
	var firstErr error
	for i, res := range results {
		if res.Error != "" {
			failed = append(failed, res.Addr)
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		if res.Applied && res.Epoch == resp.Epoch { // the fleet's IDs
			resp.AddedIDs, resp.RemovedIDs = res.AddedIDs, res.RemovedIDs
		}
		resp.Applied = resp.Applied || res.Applied
		resp.Extended += res.Extended
		resp.Reverified += res.Reverified
		resp.Invalidated += res.Invalidated
		resp.WindowPatched += res.WindowPatched
	}
	if len(failed) > 0 {
		rt.met.mutationsFailed.Inc()
		rt.opts.Logger.Warn("mutation fan-out incomplete",
			"component", "gcrouter", "op", req.Op, "seq", seq,
			"failed", strings.Join(failed, ","), "fleet_size", len(results))
		return resp, fmt.Errorf("router: mutation seq %d failed on %d/%d backends (%s) — lagging backends are diverted; retry with seq %d to converge: %w",
			seq, len(failed), len(results), strings.Join(failed, ", "), seq, firstErr)
	}
	rt.opts.Logger.Info("mutation applied fleet-wide",
		"component", "gcrouter", "op", req.Op, "seq", seq,
		"epoch", resp.Epoch, "applied", resp.Applied, "backends", len(results))
	return resp, nil
}

// seedMutSeq initialises the fleet-wide sequence counter from the
// backends' own mutation state: the maximum mutation_seq any answering
// backend reports. Runs under mutMu, once per router lifetime; at least
// one backend must answer, else the mutation is refused (seeding from a
// partial fleet view that excludes the most advanced backend could
// reissue a consumed sequence number).
func (rt *Router) seedMutSeq(ctx context.Context) error {
	answered := false
	for _, st := range rt.fetchStats(ctx, rt.topo.Load().bs) {
		if st != nil {
			answered = true
			rt.mutSeq = max(rt.mutSeq, st.MutationSeq)
		}
	}
	if !answered {
		return fmt.Errorf("router: seeding mutation sequence: %w", errNoBackends)
	}
	rt.mutSeqSeeded = true
	return nil
}

func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req server.MutateRequest
	if !server.ReadJSON(w, r, server.RequestBodyLimit, &req) {
		return
	}
	resp, err := rt.Mutate(r.Context(), req)
	if err != nil {
		// A fleet-wide rejection (every backend answered 4xx — the
		// mutation itself is malformed) forwards the backend's status; a
		// partial failure is the router's own 502, because some backends
		// did apply and the caller must retry with the same seq, not fix
		// the request.
		var se *server.StatusError
		if !resp.Applied && errors.As(err, &se) && se.Code < 500 {
			server.WriteError(w, se.Code, err)
			return
		}
		if errors.Is(err, errNoBackends) {
			rt.replyDispatchError(w, err)
			return
		}
		server.WriteError(w, http.StatusBadGateway, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
