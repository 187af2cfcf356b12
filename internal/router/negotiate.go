package router

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// The router negotiates wire formats with its clients independently of
// what it speaks to its backends: a client's binary request may be
// re-encoded as text toward a pre-binary backend and vice versa —
// answers are byte-identical either way, so the two negotiations never
// constrain each other. Backend capability is discovered by the health
// prober (X-GC-Wire on /healthz) and flips each backend client's wire
// mode in place.

// streamBatch serves one /querybatch request in NDJSON streaming mode
// across the fleet: the batch is grouped exactly as the buffered path
// groups it (per-shard in Shard mode, whole to one backend in
// Replicate), each group is streamed from its backend concurrently, and
// the per-backend streams are re-stitched into one client stream — in
// request order by default, in arrival order under ?order=arrival.
// Upstream the router always asks for arrival order: it re-orders (or
// not) for its own client, and earliest upstream delivery means
// earliest downstream delivery. A client disconnect cancels every
// backend stream through the request context.
func (rt *Router) streamBatch(w http.ResponseWriter, r *http.Request, qs []*graph.Graph) {
	tp := rt.topo.Load()
	groups := make(map[*backend][]int)
	if rt.opts.Mode == Shard {
		for i, q := range qs {
			b := tp.assign(rt.hash(q), rt.opts.QueueBound)
			if b == nil {
				rt.replyDispatchError(w, errNoBackends)
				return
			}
			groups[b] = append(groups[b], i)
		}
	} else {
		b := tp.leastLoaded(nil)
		if b == nil {
			rt.replyDispatchError(w, errNoBackends)
			return
		}
		idxs := make([]int, len(qs))
		for i := range idxs {
			idxs[i] = i
		}
		groups[b] = idxs
	}

	st := rt.wire.Stream(w, r, len(qs))
	var wg sync.WaitGroup
	for b, idxs := range groups {
		wg.Add(1)
		go func(b *backend, idxs []int) {
			defer wg.Done()
			rt.streamGroup(r.Context(), tp, b, qs, idxs, st.Deliver, st.Abort)
		}(b, idxs)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		rt.met.streamCancelled.Inc()
	}
	st.Close()
}

// streamGroup streams one backend's share of a batch, re-tagging each
// result's backend-local index with its global request index. Failover
// is sound only while the backend has delivered nothing: flushed
// results cannot be unsent, and a re-dispatch could then deliver a
// duplicate index — so a mid-stream death aborts the client stream with
// an error line instead.
func (rt *Router) streamGroup(ctx context.Context, tp *topology, b *backend, qs []*graph.Graph, idxs []int,
	deliver func(*server.StreamResult), abort func(error)) {
	rt.routed.Add(int64(len(idxs)))
	rt.met.routed.Add(float64(len(idxs)))
	sub := make([]*graph.Graph, len(idxs))
	for k, i := range idxs {
		sub[k] = qs[i]
	}
	lastErr := errNoBackends
	for attempt := 0; b != nil && attempt < len(tp.bs); attempt++ {
		delivered := 0
		err := rt.dispatch(ctx, b, func(ctx context.Context) error {
			return b.cl.QueryBatchStream(ctx, sub, true, func(sr server.StreamResult) error {
				if sr.Index < 0 || sr.Index >= len(idxs) {
					return fmt.Errorf("router: backend %s streamed index %d of a %d-query group", b.addr, sr.Index, len(idxs))
				}
				delivered++
				sr.Index = idxs[sr.Index]
				rt.met.observeStats(&sr.Stats)
				deliver(&sr)
				return nil
			})
		})
		if err == nil {
			return
		}
		if delivered > 0 || !retryable(ctx, err) {
			abort(err)
			return
		}
		rt.retried.Add(int64(len(idxs)))
		rt.met.retried.Add(float64(len(idxs)))
		lastErr = err
		b = tp.leastLoaded(b)
	}
	abort(lastErr)
}
