package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestServerShedsPastThreshold pins gcserved's own back-stop shedding: a
// batch whose size would push admitted work past ShedThreshold is
// refused with 429 + Retry-After before any query executes, while work
// within the threshold is served, and the sheds are visible in /stats.
func TestServerShedsPastThreshold(t *testing.T) {
	ds := testDataset(30, 91)
	queries := testWorkload(ds, 4, 92)
	cache := newTestCache(ds)
	s := startServer(t, cache, Options{ShedThreshold: 2})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	// A batch of 3 over a threshold of 2 is refused atomically.
	_, err := cl.QueryBatch(ctx, queries[:3])
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("oversized batch returned %v, want a 429 StatusError", err)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("429 reply carried no Retry-After hint (got %v)", se.RetryAfter)
	}
	if got := cache.Totals().Queries; got != 0 {
		t.Errorf("refused batch still executed %d queries", got)
	}

	// Work within the threshold is served normally.
	if _, err := cl.QueryBatch(ctx, queries[:2]); err != nil {
		t.Fatalf("batch within threshold: %v", err)
	}
	if _, err := cl.Query(ctx, queries[3]); err != nil {
		t.Fatalf("single query within threshold: %v", err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Shed != 1 {
		t.Errorf("/stats reports %d sheds, want 1", st.Shed)
	}
}

// TestCoalescerDropsCanceledWaiters pins context propagation through
// the coalescer: a caller whose context dies while its query is queued
// behind a busy engine returns immediately, and the run that takes the
// queue drops the dead waiter before it executes — a killed client cancels
// queued work, not just the response write.
func TestCoalescerDropsCanceledWaiters(t *testing.T) {
	// maxWait of an hour: only the gated holder's return can run the queue.
	co, gm, base, queries, holder := gatedCoalescer(t, 93, 3, 4, time.Hour, 1)

	ctx, cancel := context.WithCancel(context.Background())
	dead := ask(ctx, co, queries[1])
	waitPending(t, co, 1)
	cancel()
	dead.wait(t, "canceled waiter") // the engine is still busy
	if !errors.Is(dead.err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", dead.err)
	}

	// A live waiter joins the same queue; the run that drains it must
	// execute only the live query.
	live := ask(context.Background(), co, queries[2])
	waitPending(t, co, 2)
	close(gm.gate)
	holder.answers(t, "holder", base, queries[0])
	live.answers(t, "live waiter", base, queries[2])
	waitIdle(t, co)
	if got := co.cache.Totals().Queries; got != 2 {
		t.Errorf("cache executed %d queries, want 2 (the holder and the live waiter, not the canceled one)", got)
	}

	// A dead context never enqueues at all.
	if _, err := co.query(ctx, queries[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("query with a dead context returned %v, want context.Canceled", err)
	}
	waitPending(t, co, 0)
}
