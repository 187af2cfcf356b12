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
	// cl is the query-dispatch client. It posts binary request frames
	// (Client.QueryBatchFrame) from its first call: fleet members are built
	// from one tree, so there is no backend that cannot read them and
	// nothing to discover.
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
	slots    chan struct{} // dispatch slots; capacity tuning.slots
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

// assign picks the backend for one query by its affinity key h: the
// query's isomorphism-invariant key (graph.IsoKey), the key the backends'
// caches store on their entries and look exact matches up by, so that
// isomorphic queries, and their exact hits, concentrate on one backend.
// The key needs no seed, and the router reads it off the query's wire
// body (graph.SplitBinary) rather than building the graph. The backend is
// the query's ring home while that home is available and has a free
// dispatch slot, else the least-loaded available backend — affinity
// concentrates cache hits, but never at the price of queueing behind a
// saturated or broken replica while others idle. The home is looked up on the
// consistent-hash ring over the *full* backend list, not the available
// subset, so a breaker opening or a drain in progress never remaps the
// queries of the surviving backends — unavailability diverts, only a
// topology change remaps, and the ring bounds even that to ~1/N of the
// keys. Returns nil when no backend is available.
//
// Availability here includes dataset currency: a backend lagging the
// fleet's mutation epoch is skipped exactly like one with an open
// breaker — its cache has not applied a mutation its peers have, so
// serving from it could return stale answers. Lagging, like breaker
// state, diverts without remapping the ring.
func (tp *topology) assign(h uint64) *backend {
	fe := tp.fleetEpoch()
	home := tp.bs[tp.ring.lookup(h)]
	homeOK := home.available() && home.current(fe)
	if homeOK && home.load() < int64(cap(home.slots)) {
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
// breaker: take a slot (blocking up to slotWait under backpressure,
// cancelled early by ctx), ask the breaker, call, record the outcome.
// Every attempt — including one that dies waiting for a slot — lands in
// the backend's dispatch-latency histogram.
func (rt *Router) dispatch(ctx context.Context, b *backend, call func(context.Context) error) error {
	start := time.Now()
	defer func() { b.dispatch.Observe(time.Since(start).Seconds()) }()
	if err := b.acquire(ctx, rt.tun.slotWait); err != nil {
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
// hands nothing on unless it succeeds, so a failed attempt can always be
// re-dispatched. The answering backend is returned.
func (rt *Router) failover(ctx context.Context, tp *topology, b *backend, n int,
	call func(context.Context, *backend) error) (*backend, error) {
	rt.met.routed.Add(float64(n))
	lastErr := errNoBackends
	for attempt := 0; b != nil && attempt < len(tp.bs); attempt++ {
		err := rt.dispatch(ctx, b, func(ctx context.Context) error { return call(ctx, b) })
		if err == nil {
			return b, nil
		}
		if !retryable(ctx, err) {
			return nil, err
		}
		rt.met.retried.Add(float64(n))
		lastErr = err
		b = tp.leastLoaded(b)
	}
	return nil, lastErr
}

// batchGroup is one backend's share of a batch: the request indices of
// the queries assigned to it, in request order.
type batchGroup struct {
	b    *backend
	idxs []int
}

// group splits a request's queries over the fleet by the routing rule:
// each query goes to tp.assign of its key — its ring home, or the
// least-loaded backend while that home is unavailable, lagging or
// saturated. The groups come back in topology order, empty ones left
// out, so a batch fans out to at most len(tp.bs) backends.
func (rt *Router) group(tp *topology, qs []graph.Body) ([]batchGroup, error) {
	groups := make([]batchGroup, len(tp.bs))
	for i, q := range qs {
		b := tp.assign(q.Key)
		if b == nil {
			return nil, errNoBackends
		}
		k := 0
		for tp.bs[k] != b {
			k++
		}
		groups[k].b = b
		groups[k].idxs = append(groups[k].idxs, i)
	}
	n := 0
	for _, g := range groups {
		if g.b != nil {
			groups[n] = g
			n++
		}
	}
	return groups[:n], nil
}

// queryBatch answers a request's queries in one piece: they are grouped
// by the routing rule, and each group is one failover dispatch of a
// /querybatch round-trip (dispatchGroup), the first on the calling
// goroutine and the rest concurrently beside it. A lone group — a single
// query always is one, its backend tp.assign of its key — runs on the
// caller alone, and its backend's results are the reply. Otherwise the
// results are re-stitched in request order, and the whole request shares
// one context that the first terminal error cancels — the reply is an
// error from then on, so the sibling groups stop verifying for it. That
// first error is returned.
func (rt *Router) queryBatch(ctx context.Context, tp *topology, qs []graph.Body, trace bool) ([]server.QueryResponse, error) {
	if len(qs) == 1 {
		b := tp.assign(qs[0].Key)
		if b == nil {
			return nil, errNoBackends
		}
		return rt.dispatchGroup(ctx, tp, b, qs, trace)
	}
	groups, err := rt.group(tp, qs)
	if err != nil {
		return nil, err
	}
	if len(groups) == 1 {
		return rt.dispatchGroup(ctx, tp, groups[0].b, qs, trace)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]server.QueryResponse, len(qs))
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		firstErr error
	)
	run := func(g batchGroup) {
		sub := make([]graph.Body, len(g.idxs))
		for k, i := range g.idxs {
			sub[k] = qs[i]
		}
		results, err := rt.dispatchGroup(ctx, tp, g.b, sub, trace)
		if err != nil {
			failOnce.Do(func() {
				firstErr = err
				cancel()
			})
			return
		}
		for k, i := range g.idxs {
			out[i] = results[k]
		}
	}
	for _, g := range groups[1:] {
		wg.Add(1)
		go func(g batchGroup) {
			defer wg.Done()
			run(g)
		}(g)
	}
	run(groups[0])
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// dispatchGroup sends qs, one group's bodies as the client sent them, in
// request order, to b as one /querybatch frame, failing over as failover
// does, and returns the results in the same order. With trace set the
// backends are asked for traces, and each result's starts with a
// router:dispatch span naming the backend that answered it.
func (rt *Router) dispatchGroup(ctx context.Context, tp *topology, b *backend, qs []graph.Body, trace bool) ([]server.QueryResponse, error) {
	frame := graph.EncodeFrame(qs)
	start := time.Now()
	var results []server.QueryResponse
	b, err := rt.failover(ctx, tp, b, len(qs), func(ctx context.Context, b *backend) error {
		var err error
		results, err = b.cl.QueryBatchFrame(ctx, frame, len(qs), trace)
		return err
	})
	if err != nil {
		return nil, err
	}
	if trace {
		span := telemetry.Span{Name: "router:dispatch " + b.addr, DurNS: time.Since(start).Nanoseconds()}
		for i := range results {
			// A result the backend sent without a trace still gets the
			// router's hop, under the id this router's front door minted.
			if results[i].Trace == nil {
				results[i].Trace = &telemetry.Trace{RequestID: telemetry.RequestIDFrom(ctx)}
			}
			results[i].Trace.Prepend(span)
		}
	}
	return results, nil
}

// admit reserves n queries of fleet-wide capacity, refusing when the
// admitted total would cross twice the dispatch slots of tp, the
// topology the request routes over, so the threshold follows joins and
// drains. It is the front door's part of keeping tail latency bounded:
// past the point where every backend queue is expected full, refusing
// fast with a retry hint beats letting latency grow without bound. Pair
// a true return with done(n).
func (rt *Router) admit(tp *topology, n int) bool {
	if rt.admitted.Add(int64(n)) > int64(2*rt.tun.slots*len(tp.bs)) {
		rt.admitted.Add(int64(-n))
		rt.met.shed.Inc()
		return false
	}
	return true
}

func (rt *Router) done(n int) { rt.admitted.Add(int64(-n)) }
