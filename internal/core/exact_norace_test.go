//go:build !race

package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// TestPruneAllocations pins what pruning allocates once its caller has a
// removal buffer: nothing when no cached query matched (the candidate set
// is csM itself), and with two providers and two restrictors only direct
// (one union) and cs (one difference, then intersected in place).
func TestPruneAllocations(t *testing.T) {
	f := newCostFixture(t)
	csM := make([]int32, 60)
	for i := range csM {
		csM[i] = int32(i)
	}
	odd := func(lo, hi int32) []int32 {
		var ids []int32
		for id := lo | 1; id < hi; id += 2 {
			ids = append(ids, id)
		}
		return ids
	}
	providers := []*entry{{serial: 1, answer: []int32{1, 2, 3}}, {serial: 2, answer: []int32{3, 4, 5}}}
	restrictors := []*entry{{serial: 3, answer: odd(0, 50)}, {serial: 4, answer: odd(10, 60)}}
	buf := make([]removal, 0, 4)

	var cs []int32
	if allocs := testing.AllocsPerRun(100, func() {
		_, cs, buf = prune(csM, nil, nil, f.row, buf[:0])
	}); allocs != 0 || &cs[0] != &csM[0] {
		t.Errorf("no match: %v allocations (want 0), cs is csM: %v", allocs, &cs[0] == &csM[0])
	}
	var direct []int32
	if allocs := testing.AllocsPerRun(100, func() {
		direct, cs, buf = prune(csM, providers, restrictors, f.row, buf[:0])
	}); allocs != 2 {
		t.Errorf("2 providers, 2 restrictors: %v allocations, want 2 (direct and cs)", allocs)
	}
	if !equalIDs(direct, []int32{1, 2, 3, 4, 5}) || !equalIDs(cs, odd(10, 50)) || len(buf) != 4 {
		t.Errorf("direct %v, cs %v, %d removals", direct, cs, len(buf))
	}
}

// TestVerifyStageAllocations pins the bytes the verification stage
// allocates: nothing for a run with no tests, and for a run with tests
// the verdicts, a chunk list of exactly the chunks the run cuts, and a
// small fixed cost for the worker pool — not a list reserved for one
// chunk per adaptiveGrain tests. The one query of the run with tests
// embeds in no dataset graph, so it completes with an empty answer and
// Method M's verifications allocate nothing. TotalAlloc counts every
// goroutine of the process, so a stray allocation elsewhere can land in
// one round; a real one shows in every round, so the test passes on the
// first clean round of five.
func TestVerifyStageAllocations(t *testing.T) {
	ds := moleculeDataset(30, 35)
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 10, WindowSize: 5, VerifyConcurrency: 2})
	b := graph.NewBuilder()
	b.AddEdge(b.AddVertex(999), b.AddVertex(999))
	q := b.MustBuild()
	const tests, runs = 600, 50
	cs := make([]int32, tests)
	for i := range cs {
		cs[i] = int32(i % ds.Len())
	}
	stageBytes := func(nTests int) (uint64, int) {
		rs := make([]*run, runs)
		for i := range rs {
			rs[i] = c.newRun(context.Background(), []*graph.Graph{q})
			rs[i].st[0].cs, rs[i].nTests = cs[:nTests], nTests
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range rs {
			r.verify()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, len(rs[0].verdicts)
	}
	// 600 tests at VerifyConcurrency 2 are 8 chunks of 75; one chunk
	// per adaptiveGrain tests would reserve 150.
	const chunks, poolBytes = 8, 512
	var empty, n, ceiling uint64
	for round := 0; round < 5; round++ {
		empty, _ = stageBytes(0)
		var verdicts int
		n, verdicts = stageBytes(tests)
		ceiling = uint64(verdicts + chunks*int(unsafe.Sizeof(verifyChunk{})) + poolBytes)
		if empty == 0 && n <= ceiling {
			t.Logf("a run of %d tests: the stage allocates %d bytes (round %d)", tests, n, round)
			return
		}
	}
	if empty != 0 {
		t.Errorf("a run with no tests: the stage allocates %d bytes in every round, want 0", empty)
	}
	if n > ceiling {
		t.Errorf("a run of %d tests: the stage allocates %d bytes in every round, want ≤ %d", tests, n, ceiling)
	}
}

// TestExactHitAllocations pins what an exact hit costs the allocator: the
// run's state, the credit and the returned copy of the answer — and
// nothing of the path-feature vector (the lookup's key is computed on the
// stack), the probe's list or the confirmation work list it no longer
// starts. Not under -race: the detector's own
// bookkeeping allocates.
func TestExactHitAllocations(t *testing.T) {
	ds := moleculeDataset(30, 35)
	queries := typeAWorkload(ds, "ZZ", 40, 36)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 40, WindowSize: 5})
	for _, q := range queries {
		c.Query(q.Graph)
	}
	c.Flush()
	q := queries[0].Graph
	if !c.Query(q).Stats.ExactHit {
		t.Fatal("the repeated query was not an exact hit")
	}
	const ceiling = 7 // 7 measured; 8 with a delivery callback, 12 with the path-feature key, 15 with serial-keyed credit ops, 17 with per-shard stores, 39 before the lookup
	if allocs := testing.AllocsPerRun(100, func() { c.Query(q) }); allocs > ceiling {
		t.Errorf("an exact-hit Query allocates %.0f times, want ≤ %d", allocs, ceiling)
	} else {
		t.Logf("an exact-hit Query allocates %.0f times", allocs)
	}
}

// TestProbeAllocations pins the GCindex probe of one open query at one
// allocation at steady state: the candidate list it returns. The per-slot
// counters and the sub- and super-candidate lists come from the cache's
// scratch pool.
func TestProbeAllocations(t *testing.T) {
	ds := moleculeDataset(30, 35)
	queries := typeAWorkload(ds, "ZZ", 40, 36)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 40, WindowSize: 5})
	for _, q := range queries {
		c.Query(q.Graph)
	}
	c.Flush()
	ix := c.index.Load()
	var qv pathfeat.Vector
	for _, q := range queries {
		v := pathfeat.SimplePathVector(q.Graph, maxPathLen)
		if checks, _ := c.probe(ix, v); len(checks) > 0 {
			qv = v
			break
		}
	}
	if qv == nil {
		t.Fatal("no workload query has a probe candidate")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.probe(ix, qv) }); allocs != 1 {
		t.Errorf("a probe allocates %.0f times, want 1 (its candidate list)", allocs)
	}
}

// TestApplyDeltaAllocations pins the window pass's index delta at a
// constant number of allocations — the arrays of the new generation and a
// few scratch slices — whatever the number of features the index holds:
// one window of 20 admissions and 20 evictions against a 100-entry index
// of 3-vertex queries, and against one of 12-vertex queries.
func TestApplyDeltaAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var counts []float64
	for _, size := range []int{3, 12} {
		contents := map[int64]*entry{}
		var added []*entry
		for s := int64(1); s <= 120; s++ {
			e := entryOf(s, randomConnGraph(r, size, size/3, 4))
			if s <= 100 {
				contents[s] = e
			} else {
				added = append(added, e)
			}
		}
		ix := indexOf(contents)
		removed := ix.serials[:20]
		allocs := testing.AllocsPerRun(50, func() { ix.applyDelta(added, removed) })
		t.Logf("%d-vertex queries: %d columns, %d postings, %.0f allocations", size, len(ix.cols.Feats), len(ix.cols.IDs), allocs)
		counts = append(counts, allocs)
	}
	const ceiling = 16 // 16 measured
	if counts[0] != counts[1] || counts[1] > ceiling {
		t.Errorf("applyDelta allocates %v times for the two indexes, want one count ≤ %d", counts, ceiling)
	}
}

// TestWindowPassAllocations pins the whole window pass at a number of
// allocations that does not grow with the window: W distinct new queries
// admitted into a full cache, each evicting a cached one, cost the same at
// W = 5 and W = 40. Entries arrive complete, so nothing is initialised per
// admitted entry.
func TestWindowPassAllocations(t *testing.T) {
	const capacity, runs = 40, 20
	var counts []float64
	for _, w := range []int{5, 40} {
		c := New(method.NewVF2Plus(moleculeDataset(10, 55)), Options{CacheSize: capacity, WindowSize: w})
		label, serial := graph.Label(100), int64(0)
		window := func() []*entry { // w new, pairwise non-isomorphic queries
			ws := make([]*entry, w)
			for i := range ws {
				serial++
				ws[i] = entryOf(serial, pathG(label, label+1))
				label += 2
			}
			return ws
		}
		for len(c.CachedSerials()) < capacity {
			c.processWindow(window(), serial)
		}
		windows := make([][]*entry, runs+1) // AllocsPerRun adds a warm-up run
		for i := range windows {
			windows[i] = window()
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			c.processWindow(windows[next], serial)
			next++
		})
		if tot := c.Totals(); tot.Evicted < int64(runs*w) || len(c.CachedSerials()) != capacity {
			t.Fatalf("W = %d: the passes evicted %d, cache holds %d: not a full cache admitting every query",
				w, tot.Evicted, len(c.CachedSerials()))
		}
		t.Logf("W = %d: %.0f allocations per window pass", w, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("a window pass allocates %v times at W = 5 and W = 40, want one count", counts)
	}
}
