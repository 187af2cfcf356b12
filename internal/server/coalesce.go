package server

import (
	"context"
	"sync"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/graph"
)

// coalescer batches concurrently-arriving single queries into runs of the
// cache's query pipeline: the first query to land opens a collection
// window of at most maxDelay; the batch is dispatched when maxSize queries
// have gathered or the window closes, whichever comes first. Under load
// the routing decision at the service boundary thus amortises filter
// dispatch and stats application across whole batches; an idle server adds
// at most maxDelay of latency to a lone query. Whatever its size — most
// windows close over a single query — a batch runs the same pipeline: an
// all-hit batch does not wait for Method M's filter, and a batch of one is
// not a batch to the cache's totals and telemetry.
//
// Each waiter carries its request context end-to-end: a caller whose
// context dies while its query is still queued returns immediately, the
// flush drops dead waiters before the batch executes, and a batch whose
// every waiter has left — a lone one included — abandons its remaining
// verification: a killed client cancels work, not just the response write.
type coalescer struct {
	cache   *core.Cache
	maxSize int
	maxWait time.Duration
	// met, when non-nil, receives coalesce-wait and batch-size
	// observations (set by server.New right after construction).
	met *serverMetrics

	mu      sync.Mutex
	pending []waiter
	timer   *time.Timer
	// gen numbers the batch currently being collected; every detach bumps
	// it. A timer captures the generation it was armed for, so a timer
	// whose Stop raced with a size-triggered flush (Stop returns false
	// once the callback has started waiting on mu) cannot detach the
	// *next* batch's waiters early or disarm that batch's own timer.
	gen uint64
}

// waiter is one caller blocked on a coalesced query.
type waiter struct {
	ctx context.Context
	q   *graph.Graph
	ch  chan core.Result
	enq time.Time // when the query entered the pending batch
}

func newCoalescer(c *core.Cache, maxSize int, maxWait time.Duration) *coalescer {
	return &coalescer{cache: c, maxSize: maxSize, maxWait: maxWait}
}

// query answers q, possibly as part of a coalesced batch. It blocks until
// the answer is available or ctx dies, and is safe for any number of
// concurrent callers. On a dead context the zero Result and the context's
// error are returned; if the query was still queued it will be dropped
// from its batch before execution.
func (co *coalescer) query(ctx context.Context, q *graph.Graph) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	if co.maxSize <= 1 || co.maxWait <= 0 {
		return co.cache.Query(q), nil
	}
	w := waiter{ctx: ctx, q: q, ch: make(chan core.Result, 1), enq: time.Now()}
	co.mu.Lock()
	co.pending = append(co.pending, w)
	if len(co.pending) >= co.maxSize {
		batch := co.detachLocked()
		co.mu.Unlock()
		co.flush(batch)
	} else {
		if len(co.pending) == 1 {
			// First query of a new batch opens the collection window.
			gen := co.gen
			co.timer = time.AfterFunc(co.maxWait, func() { co.timerFlush(gen) })
		}
		co.mu.Unlock()
	}
	select {
	case res := <-w.ch:
		return res, nil
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// detachLocked takes ownership of the pending batch and disarms its
// timer; the caller holds mu.
func (co *coalescer) detachLocked() []waiter {
	batch := co.pending
	co.pending = nil
	co.gen++
	if co.timer != nil {
		co.timer.Stop()
		co.timer = nil
	}
	return batch
}

// timerFlush fires when the collection window of batch generation gen
// closes. If that batch was already detached — a size-triggered flush won
// the race, possibly while this callback was blocked on mu — the pending
// waiters belong to a newer generation with its own timer, and this timer
// must not touch them.
func (co *coalescer) timerFlush(gen uint64) {
	co.mu.Lock()
	if gen != co.gen {
		co.mu.Unlock()
		return
	}
	batch := co.detachLocked()
	co.mu.Unlock()
	co.flush(batch)
}

// flush runs one detached batch through the cache and delivers each
// waiter's result. Waiters whose context died while queued are dropped
// first — their callers are gone, so their queries must not cost the
// cache any work. It runs on the goroutine that detached the batch (a
// caller on size triggers, the timer goroutine on window closes).
func (co *coalescer) flush(batch []waiter) {
	live := batch[:0]
	for _, w := range batch {
		if w.ctx.Err() == nil {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return
	}
	qs := make([]*graph.Graph, len(live))
	for i, w := range live {
		qs[i] = w.q
	}
	if co.met != nil {
		co.met.batchSize.Observe(float64(len(live)))
		now := time.Now()
		for _, w := range live {
			co.met.coalesceWait.Observe(now.Sub(w.enq).Seconds())
		}
	}
	// Stream the batch so each waiter is answered the moment its own
	// query completes — a cheap query coalesced next to an expensive one
	// no longer waits for the whole batch. The composite context cancels
	// the batch only once every waiter is gone: any one live waiter
	// still needs every answer to stay sound for its own query.
	abandoned, err := co.cache.QueryBatchStream(allWaitersCtx(live), qs, func(i int, r core.Result) {
		live[i].ch <- r
	})
	if err != nil && co.met != nil {
		co.met.streamCancelled.Inc()
		co.met.streamAbandoned.Add(float64(abandoned))
	}
}

// allWaitersCtx is a polling context over a coalesced batch's waiters:
// Err reports cancellation only when every waiter's context is dead.
// Done returns nil — QueryBatchStream's contract is to poll Err only —
// so no goroutine fan-in is needed per batch.
type allWaitersCtx []waiter

func (c allWaitersCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c allWaitersCtx) Done() <-chan struct{}       { return nil }
func (c allWaitersCtx) Value(key any) any           { return nil }

func (c allWaitersCtx) Err() error {
	for _, w := range c {
		if w.ctx.Err() == nil {
			return nil
		}
	}
	return context.Canceled
}
