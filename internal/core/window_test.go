package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/ggsx"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// TestShardedCapacityRespected: the cache never holds more than CacheSize
// entries at any window boundary — including windows that admit more
// queries than the whole cache holds.
func TestShardedCapacityRespected(t *testing.T) {
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
			want := SelectVictims(policy, c.Stats(), cached, current, over)
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

// TestConcurrentShardedMatchesSerial drives 8 goroutines through one
// shared cache with asynchronous rebuilds and asserts every answer matches
// the serial baseline — under -race this is the concurrency soundness
// check for the store's hand-offs (the published index generation, the
// window, the statistics store).
func TestConcurrentShardedMatchesSerial(t *testing.T) {
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
	for _, s := range c.CachedSerials() {
		if row := c.Stats().Row(s); len(row) == 0 {
			t.Errorf("cached serial %d has no statistics row", s)
		}
	}
}

// TestIsomorphsShareFeatureHash pins the invariant the exact lookup and
// the duplicate guards rely on: isomorphic graphs share a feature hash.
func TestIsomorphsShareFeatureHash(t *testing.T) {
	a := &entry{serial: 1, g: pathG(3, 1, 2)}
	b := &entry{serial: 2, g: pathG(2, 1, 3)} // reversed path: isomorphic
	if a.featureHash(4) != b.featureHash(4) {
		t.Error("isomorphic entries must share a feature hash")
	}
	other := &entry{serial: 3, g: pathG(5, 6)}
	if a.featureHash(4) == other.featureHash(4) {
		t.Error("distinct feature sets should (overwhelmingly) hash apart")
	}
	if h := pathfeat.HashVector(nil); h != 0 {
		t.Errorf("empty feature set must hash to 0, got %d", h)
	}
	c := pathfeat.SimplePaths(a.g, 4)
	if got, want := a.featureHash(4), pathfeat.HashVector(pathfeat.VectorOf(c)); got != want {
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
