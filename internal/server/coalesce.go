package server

import (
	"context"
	"sync"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/graph"
)

// coalescer shares runs of the cache's query pipeline between single
// queries that are in flight together — group commit, not a timer:
//
//  1. a query that finds no run in flight is dispatched at once;
//  2. one that arrives while a run is in flight queues, and the moment a run
//     returns its goroutine takes the whole queue as the next run — batches
//     form exactly when, and only as large as, concurrency exists;
//  3. maxSize queued queries are dispatched at once, beside the runs in flight;
//  4. maxWait bounds how long a query stays queued behind a busy engine: the
//     first to queue arms it, expiry dispatches the queue past the slow run.
//
// Every run has a goroutine of its own, never a caller's: a caller whose
// context dies returns at once, queued or running. The flush drops dead
// waiters first, and a run whose every waiter has left — a lone one
// included, a run of one being the same pipeline — abandons its verification.
type coalescer struct {
	cache   *core.Cache
	maxSize int
	maxWait time.Duration
	met     *serverMetrics // when non-nil, gets wait, size and dispatch reason

	mu      sync.Mutex
	pending []waiter // queued behind the runs in flight
	running int      // run goroutines in flight; pending is empty at 0
	timer   *time.Timer
	// gen numbers the queue being collected; every detach bumps it. A timer
	// captures the generation it was armed for, so one whose Stop lost a race
	// with another dispatch cannot touch the *next* queue or its timer.
	gen uint64
}

// waiter is one caller blocked on a coalesced query.
type waiter struct {
	ctx context.Context
	q   *graph.Graph
	ch  chan answered
	enq time.Time // when the query entered the queue
}

// answered is a result plus how long its query queued before dispatch.
type answered struct {
	core.Result
	wait time.Duration
}

func newCoalescer(c *core.Cache, maxSize int, maxWait time.Duration) *coalescer {
	return &coalescer{cache: c, maxSize: maxSize, maxWait: maxWait}
}

// query answers q, possibly as part of a coalesced batch, blocking until
// the answer is available or ctx dies (zero result, the context's error; a
// query still queued is then dropped from its batch). Safe for concurrent use.
func (co *coalescer) query(ctx context.Context, q *graph.Graph) (answered, error) {
	if err := ctx.Err(); err != nil {
		return answered{}, err
	}
	if co.maxSize <= 1 || co.maxWait <= 0 {
		return answered{Result: co.cache.Query(q)}, nil
	}
	w := waiter{ctx: ctx, q: q, ch: make(chan answered, 1), enq: time.Now()}
	co.mu.Lock()
	co.pending = append(co.pending, w)
	switch {
	case co.running == 0:
		co.dispatchLocked(dispatchIdle)
	case len(co.pending) >= co.maxSize:
		co.dispatchLocked(dispatchFull)
	case len(co.pending) == 1:
		// First query to queue behind a busy engine arms the bound.
		gen := co.gen
		co.timer = time.AfterFunc(co.maxWait, func() { co.timerFlush(gen) })
	}
	co.mu.Unlock()
	select {
	case res := <-w.ch:
		return res, nil
	case <-ctx.Done():
		return answered{}, ctx.Err()
	}
}

// detachLocked takes the queue and disarms its timer; the caller holds mu.
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

// dispatchLocked starts a run on the whole queue; the caller holds mu.
func (co *coalescer) dispatchLocked(reason int) {
	co.running++
	go co.run(co.detachLocked(), reason)
}

// run executes batch and then, for as long as it finds queries queued up
// behind it on return, the whole queue as its next run.
func (co *coalescer) run(batch []waiter, reason int) {
	for len(batch) > 0 {
		co.flush(batch, reason)
		co.mu.Lock()
		if batch, reason = co.detachLocked(), dispatchDrained; len(batch) == 0 {
			co.running--
		}
		co.mu.Unlock()
	}
}

// timerFlush dispatches queue generation gen after maxWait, unless detached.
func (co *coalescer) timerFlush(gen uint64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if gen == co.gen {
		co.dispatchLocked(dispatchTimeout)
	}
}

// flush runs one detached batch through the cache and delivers each waiter's
// result. Waiters whose context died while queued cost the cache nothing.
func (co *coalescer) flush(batch []waiter, reason int) {
	live, qs := batch[:0], make([]*graph.Graph, 0, len(batch))
	for _, w := range batch {
		if w.ctx.Err() == nil {
			live, qs = append(live, w), append(qs, w.q)
		}
	}
	if len(live) == 0 {
		return
	}
	now := time.Now()
	if co.met != nil {
		co.met.dispatch[reason].Inc()
		co.met.batchSize.Observe(float64(len(live)))
		for _, w := range live {
			co.met.coalesceWait.Observe(now.Sub(w.enq).Seconds())
		}
	}
	// Stream the batch so each waiter is answered the moment its own query
	// completes. The composite context cancels the batch only once every
	// waiter is gone: a live one needs every answer to keep its own sound.
	abandoned, err := co.cache.QueryBatchStream(allWaitersCtx(live), qs, func(i int, r core.Result) {
		live[i].ch <- answered{r, now.Sub(live[i].enq)}
	})
	if err != nil && co.met != nil {
		co.met.streamCancelled.Inc()
		co.met.streamAbandoned.Add(float64(abandoned))
	}
}

// allWaitersCtx is a polling context over a batch's waiters: Err reports
// cancellation only when every waiter's context is dead. Done returns nil
// (QueryBatchStream polls Err only), so no per-batch fan-in goroutine.
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
