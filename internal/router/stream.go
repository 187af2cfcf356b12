package router

import (
	"context"
	"fmt"
	"net/http"

	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// streamBatch serves one grouped /querybatch request in NDJSON streaming
// mode across the fleet: each group is streamed from its backend
// concurrently and the per-backend streams are re-stitched into one
// client stream — in request order by default, in arrival order under
// ?order=arrival. Upstream the router always asks for arrival order: it
// re-orders (or not) for its own client, and earliest upstream delivery
// means earliest downstream delivery. Each result's backend-local index
// is re-tagged with its global request index. A client disconnect
// cancels every backend stream through the request context; a group's
// terminal failure cancels its siblings and ends the client stream with
// an error line.
func (rt *Router) streamBatch(w http.ResponseWriter, r *http.Request, tp *topology, groups map[*backend][]int, qs []*graph.Graph) {
	st := rt.wire.Stream(w, r, len(qs))
	err := rt.scatter(r.Context(), tp, groups, qs,
		func(ctx context.Context, b *backend, sub []*graph.Graph, idxs []int) (delivered int, err error) {
			err = b.cl.QueryBatchStream(ctx, sub, true, func(sr server.StreamResult) error {
				if sr.Index < 0 || sr.Index >= len(idxs) {
					return fmt.Errorf("router: backend %s streamed index %d of a %d-query group", b.addr, sr.Index, len(idxs))
				}
				delivered++
				sr.Index = idxs[sr.Index]
				rt.met.query.Observe(&sr.Stats)
				st.Deliver(&sr)
				return nil
			})
			return delivered, err
		})
	if err != nil {
		st.Abort(err)
	}
	if r.Context().Err() != nil {
		rt.met.streamCancelled.Inc()
	}
	st.Close()
}
