package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// TestCapacityRespected: the cache never holds more than CacheSize
// entries at any window boundary — including windows that admit more
// queries than the whole cache holds.
func TestCapacityRespected(t *testing.T) {
	ds := moleculeDataset(40, 33)
	for _, window := range []int{4, 8, 16} {
		c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 8, WindowSize: window})
		for _, q := range typeAWorkload(ds, "UU", 120, 34) {
			c.Query(q.Graph)
			if got := len(c.CachedSerials()); got > 8 {
				t.Fatalf("WindowSize=%d: cache grew to %d entries, cap is 8", window, got)
			}
		}
		c.Flush()
		if got := len(c.CachedSerials()); got == 0 {
			t.Errorf("WindowSize=%d: cache still empty after 120 queries", window)
		}
	}
}

// TestEvictionIsGlobal: replacement ranks every cached query together
// (§6.3). For each policy, over a stream that churns the cache, every
// window pass over a full cache evicts exactly SelectVictims over all
// cached serials, computed before the pass from the statistics as they
// stood.
func TestEvictionIsGlobal(t *testing.T) {
	ds := moleculeDataset(60, 45)
	queries := typeAWorkload(ds, "UU", 240, 46)
	for _, policy := range []PolicyKind{LRU, POP, PIN, PINC, HD} {
		c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 4, Policy: policy})
		checked := 0
		for i, q := range queries {
			c.Query(q.Graph)
			if i%7 != 6 {
				continue
			}
			// Run the pending window's pass by hand, so the expected
			// victims can be computed just before it.
			c.winMu.Lock()
			ws := c.window
			c.window = nil
			c.winMu.Unlock()
			if len(ws) == 0 {
				continue
			}
			cached := c.CachedSerials()
			over := len(cached) + len(ws) - c.opts.CacheSize
			current := c.serial.Load()
			want := SelectVictims(policy, c.EntryStats(), current, over)
			admitted := c.Totals().Admitted
			c.processWindow(ws, current)
			if over <= 0 || c.Totals().Admitted-admitted != int64(len(ws)) {
				continue // not full, or a duplicate was dropped: over is not what the pass used
			}
			after := c.CachedSerials()
			var got []int64
			for _, s := range cached {
				if _, ok := slices.BinarySearch(after, s); !ok {
					got = append(got, s)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%v, query %d: the pass evicted %v, SelectVictims over the whole cache picks %v", policy, i, got, want)
			}
			checked++
		}
		if checked < 10 {
			t.Fatalf("%v: only %d window passes over a full cache were checked", policy, checked)
		}
		t.Logf("%v: %d window passes over a full cache checked", policy, checked)
	}
}

// TestConcurrentAsyncMatchesSerial drives 8 goroutines through one
// shared cache with asynchronous window passes and asserts every answer
// matches the serial baseline — under -race this is the concurrency
// soundness check for the store's hand-offs (the published index
// generation, the window and its pass queue, the entries' hit counters).
func TestConcurrentAsyncMatchesSerial(t *testing.T) {
	const callers = 8
	ds := moleculeDataset(60, 35)
	queries := typeAWorkload(ds, "ZZ", 240, 36)
	base := method.NewVF2Plus(ds)

	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = method.Answer(base, q.Graph)
	}

	c := New(ggsx.New(ds, ggsx.Options{}), Options{
		CacheSize:    20,
		WindowSize:   5,
		AsyncRebuild: true,
	})
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		bad    atomic.Int64
	)
	wg.Add(callers)
	for w := 0; w < callers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				if got := c.Query(queries[i].Graph).Answer; !eq(got, want[i]) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	c.Flush()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent answers diverged from the serial baseline", n, len(queries))
	}
	if got := c.Totals().Queries; got != int64(len(queries)) {
		t.Errorf("Totals().Queries = %d, want %d", got, len(queries))
	}
	if got := len(c.CachedSerials()); got == 0 || got > 20 {
		t.Errorf("cache holds %d entries, want 1..20", got)
	}
	checkEntryStats(t, c)
}

// parkingObserver holds every window pass inside ObserveWindow — after the
// pass has published its index generation, before it returns — until the
// test releases it, announcing each arrival on entered.
type parkingObserver struct{ entered, release chan struct{} }

func (o parkingObserver) ObserveQuery(QueryObservation) {}
func (o parkingObserver) ObserveWindow(WindowObservation) {
	o.entered <- struct{}{}
	<-o.release
}

// waitParkedIn waits until some goroutine is blocked inside fn.
func waitParkedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, fn) && !strings.Contains(g, "[running]") && !strings.Contains(g, "[runnable]") {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked in %s", fn)
}

// TestMaintainerFlushWhilePassParked parks a window pass and, while it is
// parked, calls Flush on another goroutine and fills a second window. Flush
// waits for the parked pass and for nothing queued after the call; the
// second window's pass follows the first; a third window, filled once the
// maintainer is idle, gets its pass too. Under -race this is also the check
// on the hand-offs: with a WaitGroup here, the Add of a window filled
// after a Wait had blocked raced that Wait.
func TestMaintainerFlushWhilePassParked(t *testing.T) {
	obs := parkingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	c := New(method.NewVF2Plus(moleculeDataset(20, 53)), Options{
		CacheSize: 100, WindowSize: 2, AsyncRebuild: true, Observer: obs,
	})
	label := graph.Label(100)
	fill := func() { // two new, non-isomorphic queries: one full window
		for i := 0; i < 2; i++ {
			c.Query(pathG(label, label+1))
			label += 2
		}
	}

	fill()
	<-obs.entered // pass 1 parked
	flushed := make(chan struct{})
	go func() {
		c.Flush()
		close(flushed)
	}()
	waitParkedIn(t, "core.(*Cache).Flush")
	fill() // window 2, queued after the Flush call
	obs.release <- struct{}{}
	<-obs.entered // pass 2 parked
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Error("Flush waited for a window queued after the call")
	}
	obs.release <- struct{}{}
	c.Flush()

	fill() // window 3: the maintainer starts again from idle
	<-obs.entered
	obs.release <- struct{}{}
	c.Flush()
	<-flushed
	if got := c.Totals().WindowsProcessed; got != 3 {
		t.Errorf("%d window passes applied, want 3", got)
	}
	if got := len(c.CachedSerials()); got != 6 {
		t.Errorf("%d queries cached after three windows of two, want 6", got)
	}
}

// TestIsomorphsShareFeatureHash pins the invariant the exact lookup and
// the duplicate guards rely on: isomorphic graphs share a feature hash.
func TestIsomorphsShareFeatureHash(t *testing.T) {
	a := entryOf(1, pathG(3, 1, 2))
	b := entryOf(2, pathG(2, 1, 3)) // reversed path: isomorphic
	if a.hash != b.hash {
		t.Error("isomorphic entries must share a feature hash")
	}
	other := entryOf(3, pathG(5, 6))
	if a.hash == other.hash {
		t.Error("distinct feature sets should (overwhelmingly) hash apart")
	}
	if h := pathfeat.HashVector(nil); h != 0 {
		t.Errorf("empty feature set must hash to 0, got %d", h)
	}
	c := pathfeat.SimplePaths(a.g, 4)
	if got, want := a.hash, pathfeat.HashVector(pathfeat.VectorOf(c)); got != want {
		t.Errorf("feature hash = %d, want HashVector(VectorOf(SimplePaths)) %d", got, want)
	}
}

// TestAdaptiveVerifyDeterministic: the fan-out changes scheduling, never
// answers — a cache verifying inline and one with an eight-worker pool must
// agree on every query, and the worker sizing must stay within
// [1, VerifyConcurrency].
func TestAdaptiveVerifyDeterministic(t *testing.T) {
	ds := moleculeDataset(50, 37)
	queries := typeAWorkload(ds, "ZU", 120, 38)
	pooled := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, VerifyConcurrency: 8})
	inline := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, VerifyConcurrency: 1})
	for i, q := range queries {
		a := pooled.Query(q.Graph).Answer
		b := inline.Query(q.Graph).Answer
		if !eq(a, b) {
			t.Fatalf("query %d: pooled answer %v != inline %v", i, a, b)
		}
	}
	if got := pooled.adaptiveWorkers(3); got < 1 || got > 8 {
		t.Errorf("adaptiveWorkers = %d out of [1, 8]", got)
	}
}

// TestAdaptiveWorkersSizing: tiny work lists must shrink the fan-out to
// one worker, large ones must open the pool.
func TestAdaptiveWorkersSizing(t *testing.T) {
	c := New(method.NewVF2Plus(moleculeDataset(10, 39)), Options{VerifyConcurrency: 8})
	if got := c.adaptiveWorkers(100); got != 8 {
		t.Errorf("100 candidates: workers = %d, want full pool 8", got)
	}
	if got := c.adaptiveWorkers(2); got != 1 {
		t.Errorf("tiny candidate set: workers = %d, want 1", got)
	}
	if got := c.adaptiveWorkers(1000); got != 8 {
		t.Errorf("huge candidate set: workers = %d, want 8", got)
	}
}
