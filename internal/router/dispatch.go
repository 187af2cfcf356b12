package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// backend is one gcserved behind the router: its client, its circuit
// breaker and its bounded dispatch queue.
type backend struct {
	addr string
	// cl is the query-dispatch client. It sends binary request frames
	// from its first call: fleet members are built from one tree, so
	// there is no backend that cannot read them and nothing to discover.
	cl *server.Client
	// mcl is the mutation-dispatch client: unlike cl (one attempt per
	// call — the router's failover must not multiply attempts), a
	// mutation must land on *this* backend, so mcl retries transport
	// failures and 5xx with the client tier's jittered backoff. Safe
	// because every fan carries a sequence number the backend dedupes.
	mcl *server.Client
	br  *breaker
	// dispatch is this backend's dispatch-latency histogram (queue wait +
	// breaker check + HTTP round-trip), labelled with its address.
	dispatch *telemetry.Histogram
	slots    chan struct{} // dispatch slots; capacity QueueBound
	queued   atomic.Int64  // dispatches waiting for a slot
	// draining marks a backend on its way out of the fleet: it stops
	// taking new dispatches (available() is false) while in-flight work
	// finishes and the topology change lands. Requests racing the drain
	// on an older topology snapshot divert exactly as they would around
	// an open breaker.
	draining atomic.Bool
	// epoch is the backend's last observed dataset epoch, fed by mutate
	// replies, aggregated-stats replies and health-probe headers. A
	// backend below the fleet maximum is lagging — it has not applied a
	// mutation its peers have, so its answers could be stale — and query
	// assignment diverts around it until it catches up.
	epoch atomic.Int64
}

// acquire takes a dispatch slot, blocking up to timeout under
// backpressure. The caller's context cancels a queued acquire first —
// a killed client abandons its queue position before the request ever
// reaches the backend.
func (b *backend) acquire(ctx context.Context, timeout time.Duration) error {
	select {
	case b.slots <- struct{}{}:
		return nil
	default:
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	b.queued.Add(1)
	defer b.queued.Add(-1)
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case b.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return errSaturated
	}
}

func (b *backend) release() { <-b.slots }

// load is the routing signal: dispatches holding a slot plus dispatches
// queued for one.
func (b *backend) load() int64 { return int64(len(b.slots)) + b.queued.Load() }

// available reports whether a dispatch could be admitted right now
// (not draining, and breaker not open — or open but cooled down enough
// to half-open).
func (b *backend) available() bool { return !b.draining.Load() && b.br.Available() }

// topology is one immutable generation of the fleet: the backend list
// and the consistent-hash ring derived from it. The hot path loads one
// generation atomically and uses it end-to-end, so a join or drain
// mid-request can never hand a request half of each world.
type topology struct {
	bs   []*backend
	ring *ring
}

func newTopology(bs []*backend) *topology {
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.addr
	}
	return &topology{bs: bs, ring: buildRing(ids)}
}

// find returns the backend with the given address, or nil.
func (tp *topology) find(addr string) *backend {
	for _, b := range tp.bs {
		if b.addr == addr {
			return b
		}
	}
	return nil
}

// hash returns q's affinity hash: its isomorphism-invariant key
// (graph.IsoKey), the key the backends' caches store on their entries and
// look exact matches up by. Isomorphic queries hash identically, so their
// exact hits concentrate on one backend. The key costs O(|V|+|E|) and
// needs no seed, so it is recomputed here rather than carried with the
// dispatch.
func (rt *Router) hash(q *graph.Graph) uint64 {
	return q.IsoKey()
}

// assign picks the backend for one query: its ring home while that home
// is available and below its queue bound, else the least-loaded
// available backend — affinity concentrates cache hits, but never at
// the price of queueing behind a saturated or broken replica while
// others idle. The home is looked up on the consistent-hash ring over
// the *full* backend list, not the available subset, so a breaker
// opening or a drain in progress never remaps the queries of the
// surviving backends — unavailability diverts, only a topology change
// remaps, and the ring bounds even that to ~1/N of the keys. Returns
// nil when no backend is available.
//
// Availability here includes dataset currency: a backend lagging the
// fleet's mutation epoch is skipped exactly like one with an open
// breaker — its cache has not applied a mutation its peers have, so
// serving from it could return stale answers. Lagging, like breaker
// state, diverts without remapping the ring.
func (tp *topology) assign(h uint64, queueBound int) *backend {
	fe := tp.fleetEpoch()
	home := tp.bs[tp.ring.lookup(h)]
	homeOK := home.available() && home.current(fe)
	if homeOK && home.load() < int64(queueBound) {
		return home
	}
	if alt := tp.leastLoaded(home); alt != nil && (!homeOK || alt.load() < home.load()) {
		return alt
	}
	if homeOK {
		return home // the whole fleet is saturated: backpressure at home
	}
	return nil
}

// leastLoaded returns the available, epoch-current backend with the
// least queued plus in-flight work, excluding skip; nil when none
// qualifies.
func (tp *topology) leastLoaded(skip *backend) *backend {
	fe := tp.fleetEpoch()
	var best *backend
	var bestN int64
	for _, b := range tp.bs {
		if b == skip || !b.available() || !b.current(fe) {
			continue
		}
		if n := b.load(); best == nil || n < bestN {
			best, bestN = b, n
		}
	}
	return best
}

// dispatch runs one attempt against b under its queue bound and
// breaker: take a slot (blocking up to QueueTimeout under backpressure,
// cancelled early by ctx), ask the breaker, call, record the outcome.
// Every attempt — including one that dies waiting for a slot — lands in
// the backend's dispatch-latency histogram.
func (rt *Router) dispatch(ctx context.Context, b *backend, call func(context.Context) error) error {
	start := time.Now()
	defer func() { b.dispatch.Observe(time.Since(start).Seconds()) }()
	if err := b.acquire(ctx, rt.opts.QueueTimeout); err != nil {
		return err
	}
	defer b.release()
	if !b.br.Allow() {
		return errBreakerOpen
	}
	err := call(ctx)
	switch {
	case err == nil:
		b.br.Record(true)
	case ctx.Err() != nil:
		b.br.Forget() // the request died, not the backend
	case server.IsBackendDown(err):
		b.br.Record(false)
	default:
		b.br.Record(true) // 4xx: the backend answered; the request is at fault
	}
	return err
}

// retryable reports whether a failed attempt should fail over to
// another backend: yes for down, saturated or breaker-opened backends,
// no when the request itself is at fault — its context died (retrying
// can only fail again) or the backend answered 4xx.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, errSaturated) || errors.Is(err, errBreakerOpen) {
		return true
	}
	return server.IsBackendDown(err)
}

// failover runs call — carrying n queries — against b and, while an
// attempt fails retryably, against the least-loaded other backend: at
// most one attempt per backend of tp. It is the router's one dispatch
// loop, so routed and retried are counted here and nowhere else. call
// reports how many results it had already handed on when it returned; a
// failed attempt that delivered any is final whatever its error —
// flushed stream results cannot be unsent, and a re-dispatch could
// deliver an index twice. Buffered calls deliver nothing before they
// succeed and report 0. The answering backend is returned.
func (rt *Router) failover(ctx context.Context, tp *topology, b *backend, n int,
	call func(context.Context, *backend) (delivered int, err error)) (*backend, error) {
	rt.routed.Add(int64(n))
	rt.met.routed.Add(float64(n))
	lastErr := errNoBackends
	for attempt := 0; b != nil && attempt < len(tp.bs); attempt++ {
		delivered := 0
		err := rt.dispatch(ctx, b, func(ctx context.Context) (err error) {
			delivered, err = call(ctx, b)
			return err
		})
		if err == nil {
			return b, nil
		}
		if delivered > 0 || !retryable(ctx, err) {
			return nil, err
		}
		rt.retried.Add(int64(n))
		rt.met.retried.Add(float64(n))
		lastErr = err
		b = tp.leastLoaded(b)
	}
	return nil, lastErr
}

// queryOne dispatches one single query with failover. Singles go through
// the backend's /query so its coalescer can batch concurrent arrivals
// from many router clients. With trace set the backend is asked for its
// span breakdown (?debug=trace); the answering backend's address comes
// back so the handler can prepend its own spans naming the hop.
func (rt *Router) queryOne(ctx context.Context, q *graph.Graph, trace bool) (server.QueryResponse, string, error) {
	tp := rt.topo.Load()
	var resp server.QueryResponse
	b, err := rt.failover(ctx, tp, tp.assign(rt.hash(q), rt.opts.QueueBound), 1,
		func(ctx context.Context, b *backend) (_ int, err error) {
			if trace {
				resp, err = b.cl.QueryTrace(ctx, q)
			} else {
				resp, err = b.cl.Query(ctx, q)
			}
			return 0, err
		})
	if err != nil {
		return server.QueryResponse{}, "", err
	}
	rt.met.query.Observe(&resp.Stats)
	return resp, b.addr, nil
}

// group splits a batch over the fleet, as request indices per backend:
// in Shard mode each query goes to its assigned backend, in Replicate
// mode the whole batch to the least-loaded available one.
func (rt *Router) group(tp *topology, qs []*graph.Graph) (map[*backend][]int, error) {
	groups := make(map[*backend][]int)
	if rt.opts.Mode == Shard {
		for i, q := range qs {
			b := tp.assign(rt.hash(q), rt.opts.QueueBound)
			if b == nil {
				return nil, errNoBackends
			}
			groups[b] = append(groups[b], i)
		}
		return groups, nil
	}
	b := tp.leastLoaded(nil)
	if b == nil {
		return nil, errNoBackends
	}
	idxs := make([]int, len(qs))
	for i := range idxs {
		idxs[i] = i
	}
	groups[b] = idxs
	return groups, nil
}

// scatter runs a grouped batch: one failover dispatch per group,
// concurrently, call receiving the group's queries and their request
// indices. The whole batch shares one context that the first terminal
// error cancels — the reply is an error from then on, so the sibling
// groups stop verifying and streaming for it. That first error is
// returned.
func (rt *Router) scatter(ctx context.Context, tp *topology, groups map[*backend][]int, qs []*graph.Graph,
	call func(ctx context.Context, b *backend, sub []*graph.Graph, idxs []int) (delivered int, err error)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	for b, idxs := range groups {
		wg.Add(1)
		go func(b *backend, idxs []int) {
			defer wg.Done()
			sub := make([]*graph.Graph, len(idxs))
			for k, i := range idxs {
				sub[k] = qs[i]
			}
			_, err := rt.failover(ctx, tp, b, len(idxs), func(ctx context.Context, b *backend) (int, error) {
				return call(ctx, b, sub, idxs)
			})
			if err != nil {
				failOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}(b, idxs)
	}
	wg.Wait()
	return firstErr
}

// queryBatch answers a grouped batch in one piece: one QueryBatch
// round-trip per group, re-stitched in request order.
func (rt *Router) queryBatch(ctx context.Context, tp *topology, groups map[*backend][]int, qs []*graph.Graph) ([]server.QueryResponse, error) {
	out := make([]server.QueryResponse, len(qs))
	err := rt.scatter(ctx, tp, groups, qs,
		func(ctx context.Context, b *backend, sub []*graph.Graph, idxs []int) (int, error) {
			results, err := b.cl.QueryBatch(ctx, sub)
			if err != nil {
				return 0, err
			}
			for k, i := range idxs {
				rt.met.query.Observe(&results[k].Stats)
				out[i] = results[k]
			}
			return 0, nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// admit reserves n queries of fleet-wide capacity, refusing when the
// admitted total would cross ShedThreshold — the front door's part of
// keeping tail latency bounded: past the point where every backend
// queue is expected full, refusing fast with a retry hint beats letting
// latency grow without bound. Pair a true return with done(n).
func (rt *Router) admit(n int) bool {
	if rt.admitted.Add(int64(n)) > int64(rt.opts.ShedThreshold) {
		rt.admitted.Add(int64(-n))
		rt.shed.Add(1)
		rt.met.shed.Inc()
		return false
	}
	return true
}

func (rt *Router) done(n int) { rt.admitted.Add(int64(-n)) }
