package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/telemetry"
)

// waitPending polls until the coalescer holds exactly n pending waiters.
func waitPending(t *testing.T, co *coalescer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		co.mu.Lock()
		got := len(co.pending)
		co.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescer never reached %d pending waiters (have %d)", n, got)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCoalescerStaleTimerIsNoOp is the regression test for the
// stale-timer race: when the maxWait timer fires while a size-triggered
// flush holds the mutex, timer.Stop returns false and the timer callback
// runs anyway — against the *next* batch. On the old code that callback
// detached the next batch's waiters early and disarmed that batch's own
// timer; with the generation counter it must be a no-op.
//
// The interleaving is driven deterministically: the timer of generation 0
// is never allowed to fire on its own (maxWait is an hour); the test
// plays the stale callback by hand after a size-style detach has moved
// the coalescer to generation 1.
func TestCoalescerStaleTimerIsNoOp(t *testing.T) {
	ds := testDataset(30, 61)
	queries := testWorkload(ds, 2, 62)
	cache := newTestCache(ds)
	co := newCoalescer(cache, 4, time.Hour)

	results := make([]core.Result, 2)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := co.query(context.Background(), q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
			}
			results[i] = res
		}()
		waitPending(t, co, 1)

		if i == 0 {
			// Simulate the size-triggered flush that raced with batch 0's
			// timer: detach batch 0 (generation 0 → 1) while the stale
			// timer callback is conceptually blocked on mu. Flush it so
			// waiter 0 is answered.
			co.mu.Lock()
			batch := co.detachLocked()
			co.mu.Unlock()
			if len(batch) != 1 {
				t.Fatalf("detached %d waiters, want 1", len(batch))
			}
			go co.flush(batch)
		}
	}

	// Batch 1 (waiter for queries[1]) is pending with its own timer armed
	// for generation 1. Fire the stale generation-0 callback: it must not
	// touch batch 1.
	co.timerFlush(0)
	co.mu.Lock()
	pending, timerArmed := len(co.pending), co.timer != nil
	co.mu.Unlock()
	if pending != 1 {
		t.Fatalf("stale timer detached the next batch: %d pending waiters left, want 1", pending)
	}
	if !timerArmed {
		t.Fatal("stale timer disarmed the next batch's own timer")
	}

	// The genuine generation-1 close must still flush batch 1.
	co.timerFlush(1)
	wg.Wait()

	base := method.NewVF2Plus(ds)
	for i, q := range queries {
		if want := method.Answer(base, q); !eq(results[i].Answer, want) {
			t.Errorf("query %d: coalesced answer %v != local %v", i, results[i].Answer, want)
		}
	}
}

// TestCoalescerBurstRace hammers a coalescer with a deliberately tiny
// collection window and a small batch size, so size-triggered flushes and
// window closes race constantly — the configuration in which the
// stale-timer bug fired. Under -race this doubles as the coalescer's
// memory-model check; every waiter must get its own query's answer.
func TestCoalescerBurstRace(t *testing.T) {
	const (
		goroutines = 8
		perG       = 30
	)
	ds := testDataset(30, 63)
	queries := testWorkload(ds, goroutines*perG, 64)
	base := method.NewVF2Plus(ds)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = method.Answer(base, q)
	}

	cache := core.New(ggsx.New(ds, ggsx.Options{}),
		core.Options{CacheSize: 20, WindowSize: 5, AsyncRebuild: true})
	co := newCoalescer(cache, 2, 50*time.Microsecond)

	var wg sync.WaitGroup
	var mu sync.Mutex
	mismatches := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				i := g*perG + k
				res, err := co.query(context.Background(), queries[i])
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					continue
				}
				if !eq(res.Answer, want[i]) {
					mu.Lock()
					mismatches++
					mu.Unlock()
				}
				if k%5 == 4 {
					// Stagger bursts so fresh collection windows open
					// while earlier timers are still in flight.
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d of %d coalesced answers diverged — a waiter received another batch's flush", mismatches, len(queries))
	}
}

// gatedVerifyMethod parks every Verify call on gate and closes started
// when the first one arrives, freezing a batch inside verification.
type gatedVerifyMethod struct {
	method.Method
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func (m *gatedVerifyMethod) Verify(q *graph.Graph, id int32) bool {
	m.once.Do(func() { close(m.started) })
	<-m.gate
	return m.Method.Verify(q, id)
}

// TestCoalescerLoneWaiterCancellation: a coalesced batch holding a single
// query runs the same cancellable pipeline as any other, so when its only
// waiter leaves mid-verification the remaining sub-iso tests are abandoned,
// the cancellation is counted, and the query leaves no trace in the cache.
func TestCoalescerLoneWaiterCancellation(t *testing.T) {
	ds := testDataset(40, 65)
	gm := &gatedVerifyMethod{
		Method:  method.NewVF2Plus(ds), // no index: every graph is a candidate
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	// A window of one: a query that reached the window would be cached.
	// One verification worker, so only the first chunk of tests is in
	// flight when the waiter leaves.
	cache := core.New(gm, core.Options{CacheSize: 20, WindowSize: 1, VerifyConcurrency: 1})
	co := newCoalescer(cache, 4, time.Hour) // flushed by hand below
	co.met = newServerMetrics(telemetry.NewRegistry())
	q := testWorkload(ds, 1, 66)[0]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	answered := make(chan error, 1)
	go func() {
		_, err := co.query(ctx, q)
		answered <- err
	}()
	waitPending(t, co, 1)
	flushed := make(chan struct{})
	go func() {
		co.timerFlush(0)
		close(flushed)
	}()
	select {
	case <-gm.started:
	case <-time.After(10 * time.Second):
		t.Fatal("verification never started")
	}
	cancel()
	close(gm.gate)
	<-flushed

	if err := <-answered; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter returned %v, want context.Canceled", err)
	}
	if got := co.met.streamAbandoned.Value(); got == 0 {
		t.Error("stream_abandoned_verifications_total = 0: the lone waiter's batch verified to the end")
	}
	if got := co.met.streamCancelled.Value(); got != 1 {
		t.Errorf("stream_cancelled_total = %v, want 1", got)
	}
	cache.Flush()
	if tot := cache.Totals(); tot.Queries != 0 || len(cache.CachedSerials()) != 0 {
		t.Errorf("abandoned query left a trace: %d queries in totals, %d cached", tot.Queries, len(cache.CachedSerials()))
	}
}
