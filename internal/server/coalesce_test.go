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
)

// waitFor polls cond under the coalescer's mutex until it holds.
func waitFor(t *testing.T, co *coalescer, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		co.mu.Lock()
		ok := cond()
		co.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalescer never reached: %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitPending waits until the coalescer holds exactly n queued waiters.
func waitPending(t *testing.T, co *coalescer, n int) {
	t.Helper()
	waitFor(t, co, "the expected number of queued waiters", func() bool { return len(co.pending) == n })
}

// waitIdle waits until every run goroutine has exited.
func waitIdle(t *testing.T, co *coalescer) {
	t.Helper()
	waitFor(t, co, "no run in flight", func() bool { return co.running == 0 && len(co.pending) == 0 })
}

// testCoalescer is the coalescer of a Server over c with the given bounds.
func testCoalescer(c *core.Cache, maxSize int, maxWait time.Duration) *coalescer {
	return New(c, Options{MaxBatch: maxSize, MaxDelay: maxWait}).co
}

// gateMethod parks the Verify calls of the gated queries (of every query
// when gated is nil) on gate and closes started when the first one parks.
// It is how these tests hold a coalesced run in flight — the engine
// "busy" — for exactly as long as they need, with no timer involved.
type gateMethod struct {
	method.Method
	gated   []*graph.Graph
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func newGateMethod(m method.Method, gated ...*graph.Graph) *gateMethod {
	return &gateMethod{Method: m, gated: gated, gate: make(chan struct{}), started: make(chan struct{})}
}

func (m *gateMethod) Verify(q *graph.Graph, id int32) bool {
	park := m.gated == nil
	for _, g := range m.gated {
		park = park || g == q
	}
	if park {
		m.once.Do(func() { close(m.started) })
		<-m.gate
	}
	return m.Method.Verify(q, id)
}

// waitStarted blocks until a gated Verify call has parked.
func (m *gateMethod) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-m.started:
	case <-time.After(10 * time.Second):
		t.Fatal("no gated verification ever started")
	}
}

// asked is one co.query call running on a goroutine of its own.
type asked struct {
	res answered
	err error
	ok  chan struct{} // closed once res and err are set
}

func ask(ctx context.Context, co *coalescer, q *graph.Graph) *asked {
	a := &asked{ok: make(chan struct{})}
	go func() {
		a.res, a.err = co.query(ctx, q)
		close(a.ok)
	}()
	return a
}

// wait blocks until the call returned, failing the test after 10 s: with
// maxWait an hour in most tests, a query that depends on the timer hangs.
func (a *asked) wait(t *testing.T, what string) {
	t.Helper()
	select {
	case <-a.ok:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// answers waits for the call and checks its answer against the bare method.
func (a *asked) answers(t *testing.T, what string, base method.Method, q *graph.Graph) {
	t.Helper()
	a.wait(t, what)
	if a.err != nil {
		t.Fatalf("%s: %v", what, a.err)
	}
	if want := method.Answer(base, q); !eq(a.res.Answer, want) {
		t.Errorf("%s: coalesced answer %v != local %v", what, a.res.Answer, want)
	}
}

// gatedCoalescer builds a coalescer over VF2+ (no index: every query has
// candidates to verify) behind a gate on the given queries, with metrics,
// and holds it busy: gated[0] is dispatched and its run parked in
// verification before gatedCoalescer returns.
func gatedCoalescer(t *testing.T, seed int64, nQueries, maxSize int, maxWait time.Duration, nGated int) (*coalescer, *gateMethod, method.Method, []*graph.Graph, *asked) {
	t.Helper()
	ds := testDataset(30, seed)
	queries := testWorkload(ds, nQueries, seed+1)
	base := method.NewVF2Plus(ds)
	gm := newGateMethod(base, queries[:nGated]...)
	// A window of one: every executed query is cached before the next runs.
	co := testCoalescer(core.New(gm, core.Options{CacheSize: 20, WindowSize: 1}), maxSize, maxWait)
	holder := ask(context.Background(), co, queries[0])
	gm.waitStarted(t)
	return co, gm, base, queries, holder
}

// TestCoalescerStaleTimerIsNoOp is the regression test for the
// stale-timer race: when the maxWait timer fires while another dispatch
// holds the mutex, timer.Stop returns false and the timer callback runs
// anyway — against the *next* queue. Without the generation counter that
// callback dispatched the next queue's waiters early and disarmed that
// queue's own timer; with it the callback must be a no-op.
//
// The interleaving is driven deterministically: no timer is ever allowed
// to fire on its own (maxWait is an hour); the holder's dispatch has moved
// the coalescer to generation 1, and the test plays the stale generation-0
// callback by hand against the query queued behind the gated holder.
func TestCoalescerStaleTimerIsNoOp(t *testing.T) {
	co, gm, base, queries, holder := gatedCoalescer(t, 61, 2, 4, time.Hour, 1)
	queued := ask(context.Background(), co, queries[1])
	waitPending(t, co, 1)

	co.timerFlush(0)
	co.mu.Lock()
	pending, timerArmed, gen := len(co.pending), co.timer != nil, co.gen
	co.mu.Unlock()
	if pending != 1 {
		t.Fatalf("stale timer dispatched the next queue: %d pending waiters left, want 1", pending)
	}
	if !timerArmed {
		t.Fatal("stale timer disarmed the next queue's own timer")
	}
	if gen != 1 {
		t.Fatalf("generation %d after one dispatch, want 1", gen)
	}

	// The genuine generation-1 expiry dispatches the queue past the holder.
	co.timerFlush(1)
	queued.answers(t, "queued query", base, queries[1])
	close(gm.gate)
	holder.answers(t, "holder", base, queries[0])
	waitIdle(t, co)
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
	co := testCoalescer(cache, 2, 50*time.Microsecond)

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

// TestCoalescerLoneWaiterCancellation: a lone query is dispatched on a run
// of its own — the same cancellable pipeline as any batch — so when its
// only waiter leaves mid-verification the caller returns at once, the
// remaining sub-iso tests are abandoned, the cancellation is counted, and
// the query leaves no trace in the cache.
func TestCoalescerLoneWaiterCancellation(t *testing.T) {
	ds := testDataset(40, 65)
	gm := newGateMethod(method.NewVF2Plus(ds)) // no index: every graph is a candidate
	// A window of one: a query that reached the window would be cached.
	// One verification worker, so only the first chunk of tests is in
	// flight when the waiter leaves.
	cache := core.New(gm, core.Options{CacheSize: 20, WindowSize: 1, VerifyConcurrency: 1})
	co := testCoalescer(cache, 4, time.Hour)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lone := ask(ctx, co, testWorkload(ds, 1, 66)[0])
	gm.waitStarted(t)
	cancel()
	lone.wait(t, "cancelled lone waiter") // its run is still parked on the gate
	if !errors.Is(lone.err, context.Canceled) {
		t.Errorf("waiter returned %v, want context.Canceled", lone.err)
	}
	close(gm.gate)
	waitIdle(t, co)

	if got := co.srv.met.streamAbandoned.Value(); got == 0 {
		t.Error("stream_abandoned_verifications_total = 0: the lone waiter's run verified to the end")
	}
	if got := co.srv.met.streamCancelled.Value(); got != 1 {
		t.Errorf("stream_cancelled_total = %v, want 1", got)
	}
	cache.Flush()
	if tot := cache.Totals(); tot.Queries != 0 || len(cache.CachedSerials()) != 0 {
		t.Errorf("abandoned query left a trace: %d queries in totals, %d cached", tot.Queries, len(cache.CachedSerials()))
	}
}

// TestCoalescerMaxBatchOneAbandons: under MaxBatch 1 every query is a
// coalesced run of one, so a client that leaves while its query is parked
// in verification returns at once, and its run abandons the remaining
// tests and is counted as cancelled.
func TestCoalescerMaxBatchOneAbandons(t *testing.T) {
	ds := testDataset(40, 69)
	gm := newGateMethod(method.NewVF2Plus(ds)) // no index: every graph is a candidate
	cache := core.New(gm, core.Options{CacheSize: 20, WindowSize: 1, VerifyConcurrency: 1})
	co := testCoalescer(cache, 1, time.Hour)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := ask(ctx, co, testWorkload(ds, 1, 70)[0])
	gm.waitStarted(t)
	cancel()
	gone.wait(t, "departed client") // its run is still parked on the gate
	if !errors.Is(gone.err, context.Canceled) {
		t.Errorf("client returned %v, want context.Canceled", gone.err)
	}
	close(gm.gate)
	waitIdle(t, co)
	if got := co.srv.met.streamCancelled.Value(); got != 1 {
		t.Errorf("stream_cancelled_total = %v, want 1", got)
	}
	if got := co.srv.met.streamAbandoned.Value(); got == 0 {
		t.Error("stream_abandoned_verifications_total = 0: the run verified to the end")
	}
}

// TestCoalescerLoneQueryNeedsNoTimer is rule 1: a query that finds the
// engine idle is dispatched at once — no timer is armed, let alone waited
// for (maxWait is an hour: under a collection window this test hangs).
func TestCoalescerLoneQueryNeedsNoTimer(t *testing.T) {
	ds := testDataset(30, 67)
	queries := testWorkload(ds, 3, 68)
	co := testCoalescer(newTestCache(ds), 4, time.Hour)
	base := method.NewVF2Plus(ds)
	for i, q := range queries {
		a := ask(context.Background(), co, q)
		a.answers(t, "lone query", base, q)
		waitIdle(t, co)
		co.mu.Lock()
		timer := co.timer
		co.mu.Unlock()
		if timer != nil {
			t.Fatalf("lone query %d armed a timer", i)
		}
	}
	n := float64(len(queries))
	if got := co.srv.met.dispatch[dispatchIdle].Value(); got != n {
		t.Errorf("dispatch_total{reason=idle} = %v, want %v", got, n)
	}
	if c, s := co.srv.met.batchSize.Count(), co.srv.met.batchSize.Sum(); float64(c) != n || s != n {
		t.Errorf("batch_size observed %d runs summing to %v, want %v runs of one", c, s, n)
	}
}

// TestCoalescerDrainsQueueAsOneRun is rule 2: queries that arrive while a
// run is in flight queue behind it, and the moment it returns its
// goroutine takes the whole queue as ONE run — a batch exactly as large
// as the concurrency that existed.
func TestCoalescerDrainsQueueAsOneRun(t *testing.T) {
	co, gm, base, queries, holder := gatedCoalescer(t, 69, 4, 8, time.Hour, 1)
	var queued []*asked
	for _, q := range queries[1:] {
		queued = append(queued, ask(context.Background(), co, q))
	}
	waitPending(t, co, 3)
	batches, runs, sum := co.srv.cache.Totals().Batches, co.srv.met.batchSize.Count(), co.srv.met.batchSize.Sum()

	close(gm.gate)
	holder.answers(t, "holder", base, queries[0])
	for i, a := range queued {
		a.answers(t, "queued query", base, queries[1+i])
	}
	waitIdle(t, co)
	if got := co.srv.cache.Totals().Batches - batches; got != 1 {
		t.Errorf("the three queued queries ran as %d batches, want 1", got)
	}
	if c, s := co.srv.met.batchSize.Count()-runs, co.srv.met.batchSize.Sum()-sum; c != 1 || s != 3 {
		t.Errorf("batch_size observed %d runs summing to %v, want one run of 3", c, s)
	}
	if got := co.srv.met.dispatch[dispatchDrained].Value(); got != 1 {
		t.Errorf("dispatch_total{reason=drained} = %v, want 1", got)
	}
}

// TestCoalescerMaxWaitBoundsQueueing is rule 4 on the real timer: a query
// queued behind a run that never returns is dispatched once it has been
// held for maxWait, and answered while that run is still parked.
func TestCoalescerMaxWaitBoundsQueueing(t *testing.T) {
	co, gm, base, queries, holder := gatedCoalescer(t, 71, 2, 8, 5*time.Millisecond, 1)
	queued := ask(context.Background(), co, queries[1])
	queued.answers(t, "queued query", base, queries[1])
	select {
	case <-holder.ok:
		t.Fatal("the holder returned through a closed gate")
	default:
	}
	if wait := queued.res.wait; wait < 5*time.Millisecond {
		t.Errorf("queued query reports a wait of %v, dispatched before its 5ms bound", wait)
	}
	if got := co.srv.met.dispatch[dispatchTimeout].Value(); got != 1 {
		t.Errorf("dispatch_total{reason=timeout} = %v, want 1", got)
	}
	close(gm.gate)
	holder.answers(t, "holder", base, queries[0])
	waitIdle(t, co)
}

// TestCoalescerNegativeDelayHoldsNothing: under a negative maxWait a query
// that finds the engine busy is not held at all — it is dispatched at once
// beside the parked run and answered while that run is still parked.
func TestCoalescerNegativeDelayHoldsNothing(t *testing.T) {
	co, gm, base, queries, holder := gatedCoalescer(t, 75, 2, 8, -1, 1)
	queued := ask(context.Background(), co, queries[1])
	queued.answers(t, "query behind a busy engine", base, queries[1])
	select {
	case <-holder.ok:
		t.Fatal("the holder returned through a closed gate")
	default:
	}
	if got := co.srv.met.dispatch[dispatchTimeout].Value(); got != 1 {
		t.Errorf("dispatch_total{reason=timeout} = %v, want 1", got)
	}
	close(gm.gate)
	holder.answers(t, "holder", base, queries[0])
	waitIdle(t, co)
}

// TestCoalescerFullQueueDispatchesBesideBusyRun is rule 3 and the
// regression test for the filler bug. maxSize queries queued behind a
// parked run are dispatched without waiting for gate or timer — on a
// goroutine of their own, so the caller whose query filled the batch is
// answered as soon as its own query is (not after the whole batch, as
// when it ran the flush itself) and can still leave when its context dies.
func TestCoalescerFullQueueDispatchesBesideBusyRun(t *testing.T) {
	// queries[0] holds the engine and [1]–[3] are gated too: both full
	// batches, {1, 4} and {2, 3}, park in their first query's verification.
	// queries[4] is cached beforehand (straight through the cache, past the
	// busy coalescer): an exact hit, answered before the batch verifies.
	co, gm, base, queries, holder := gatedCoalescer(t, 73, 5, 2, time.Hour, 4)
	co.srv.cache.Query(queries[4])
	co.srv.cache.Flush()
	first := ask(context.Background(), co, queries[1])
	waitPending(t, co, 1)
	filler := ask(context.Background(), co, queries[4])
	filler.answers(t, "filler of a full batch", base, queries[4])
	select {
	case <-first.ok:
		t.Fatal("the gated first query of the full batch returned through a closed gate")
	default:
	}

	second := ask(context.Background(), co, queries[2])
	waitPending(t, co, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaver := ask(ctx, co, queries[3])
	waitPending(t, co, 0) // dispatched: the batch is parked on the gate
	cancel()
	leaver.wait(t, "cancelled filler")
	if !errors.Is(leaver.err, context.Canceled) {
		t.Errorf("cancelled filler returned %v, want context.Canceled", leaver.err)
	}
	if got := co.srv.met.dispatch[dispatchFull].Value(); got != 2 {
		t.Errorf("dispatch_total{reason=full} = %v, want 2", got)
	}

	close(gm.gate)
	holder.answers(t, "holder", base, queries[0])
	first.answers(t, "gated first query", base, queries[1])
	second.answers(t, "the cancelled filler's companion", base, queries[2])
	waitIdle(t, co)
}
