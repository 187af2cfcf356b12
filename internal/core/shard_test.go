package core

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/ggsx"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// TestShardedAnswersMatchUnsharded: the shard count is a physical layout
// choice — answers must be identical at any setting.
func TestShardedAnswersMatchUnsharded(t *testing.T) {
	ds := moleculeDataset(50, 31)
	queries := typeAWorkload(ds, "ZZ", 150, 32)
	serial := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, Shards: 1})
	sharded := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, Shards: 4})
	if got := len(sharded.shards); got != 4 {
		t.Fatalf("cache built %d shards, want 4", got)
	}
	for i, q := range queries {
		a := serial.Query(q.Graph).Answer
		b := sharded.Query(q.Graph).Answer
		if !eq(a, b) {
			t.Fatalf("query %d: Shards=4 answer %v != Shards=1 %v", i, b, a)
		}
	}
	if sharded.Totals().ExactHits == 0 {
		t.Error("sharded cache never took the exact-match shortcut on a repeating workload")
	}
}

// TestShardedCapacityRespected: per-shard proportional budgets must respect
// the global cap at every window boundary, even with more shards than
// capacity slots.
func TestShardedCapacityRespected(t *testing.T) {
	ds := moleculeDataset(40, 33)
	for _, shards := range []int{2, 8, 16} {
		c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 8, WindowSize: 4, Shards: shards})
		for _, q := range typeAWorkload(ds, "UU", 120, 34) {
			c.Query(q.Graph)
			if got := len(c.CachedSerials()); got > 8 {
				t.Fatalf("Shards=%d: cache grew to %d entries, cap is 8", shards, got)
			}
		}
		c.Flush()
		if got := len(c.CachedSerials()); got == 0 {
			t.Errorf("Shards=%d: cache still empty after 120 queries", shards)
		}
	}
}

// TestSnapshotRoundtripAcrossShardCounts: the snapshot format is
// shard-count independent — a snapshot written with Shards=4 must load
// into caches configured with Shards=1 and Shards=8 with identical cached
// serials, graphs, answers and statistics rows.
func TestSnapshotRoundtripAcrossShardCounts(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5, Shards: 4}
	c, m, _ := snapshotFixture(t, opts)

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want := c.CachedSerials()
	if len(want) == 0 {
		t.Fatal("fixture cached nothing")
	}

	for _, shards := range []int{1, 8} {
		c2 := New(m, Options{CacheSize: 15, WindowSize: 5, Shards: shards})
		if err := c2.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if got := c2.CachedSerials(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Shards=%d: restored serials %v != %v", shards, got, want)
		}
		for _, s := range want {
			g1, a1, _ := c.CachedEntry(s)
			g2, a2, ok := c2.CachedEntry(s)
			if !ok {
				t.Fatalf("Shards=%d: entry %d missing after restore", shards, s)
			}
			if !g1.StructurallyEqual(g2) {
				t.Fatalf("Shards=%d: entry %d graph changed across snapshot", shards, s)
			}
			if !reflect.DeepEqual(a1, a2) {
				t.Fatalf("Shards=%d: entry %d answers %v != %v", shards, s, a2, a1)
			}
			if r1, r2 := c.Stats().Row(s), c2.Stats().Row(s); !reflect.DeepEqual(r1, r2) {
				t.Fatalf("Shards=%d: entry %d stats %v != %v", shards, s, r2, r1)
			}
		}
	}
}

// TestConcurrentShardedMatchesSerial drives 8 goroutines through one
// shared 4-shard cache and asserts every answer matches the serial
// baseline — under -race this is the concurrency soundness check for the
// sharded store (disjoint index snapshots, per-shard window segments,
// per-shard statistics, global window trigger).
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
		Shards:       4,
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

// TestShardRoutingUsesFeatureHash pins the partitioning invariant the
// duplicate guards rely on: isomorphic graphs route to the same shard.
func TestShardRoutingUsesFeatureHash(t *testing.T) {
	a := &entry{serial: 1, g: pathG(3, 1, 2)}
	b := &entry{serial: 2, g: pathG(2, 1, 3)} // reversed path: isomorphic
	if a.routeHash(4) != b.routeHash(4) {
		t.Error("isomorphic entries must share a routing hash")
	}
	other := &entry{serial: 3, g: pathG(5, 6)}
	if a.routeHash(4) == other.routeHash(4) {
		t.Error("distinct feature sets should (overwhelmingly) hash apart")
	}
	if h := pathfeat.HashVector(nil); h != 0 {
		t.Errorf("empty feature set must hash to 0, got %d", h)
	}
	// The snapshot round-trip across shard counts relies on routing being
	// a pure function of the feature multiset.
	c := pathfeat.SimplePaths(a.g, 4)
	if got, want := a.routeHash(4), pathfeat.HashVector(pathfeat.VectorOf(c)); got != want {
		t.Errorf("routing hash = %d, want HashVector(VectorOf(SimplePaths)) %d", got, want)
	}
}

// TestApportionBudgets covers the largest-remainder split backing
// per-shard eviction.
func TestApportionBudgets(t *testing.T) {
	cases := []struct {
		capacity int
		sizes    []int
		want     []int
	}{
		{10, []int{4, 3}, []int{4, 3}},            // fits: keep everything
		{100, []int{100}, []int{100}},             // single shard: exact cap
		{8, []int{12}, []int{8}},                  // single shard over: cap
		{10, []int{10, 10}, []int{5, 5}},          // even split
		{10, []int{15, 5}, []int{8, 2}},           // floors 7+2, fracs tie at .5 → lower index
		{4, []int{0, 9, 0, 3}, []int{0, 3, 0, 1}}, // empty shards get nothing
	}
	for _, tc := range cases {
		got := apportionBudgets(tc.capacity, tc.sizes)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("apportionBudgets(%d, %v) = %v, want %v", tc.capacity, tc.sizes, got, tc.want)
		}
		sum, over := 0, false
		for i, b := range got {
			sum += b
			if b > tc.sizes[i] {
				over = true
			}
		}
		total := 0
		for _, n := range tc.sizes {
			total += n
		}
		if want := min(total, tc.capacity); sum != want && total > tc.capacity {
			t.Errorf("apportionBudgets(%d, %v) sums to %d, want %d", tc.capacity, tc.sizes, sum, want)
		}
		if over {
			t.Errorf("apportionBudgets(%d, %v) = %v exceeds a shard's occupancy", tc.capacity, tc.sizes, got)
		}
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
	c := New(method.NewVF2Plus(moleculeDataset(10, 39)), Options{VerifyConcurrency: 8, Shards: 1})
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
