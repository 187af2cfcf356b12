package core

import (
	"reflect"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// TestApplyDeltaMatchesFromScratch asserts the incremental maintenance
// invariant: applying an add/evict delta to an index answers every probe
// exactly as a from-scratch rebuild over the resulting contents would.
// (The structures themselves may differ — evicted entries leave tombstone
// slots behind until compaction — so equivalence is semantic, checked on
// the live-serial set, the entry identities and the probe answers.)
func TestApplyDeltaMatchesFromScratch(t *testing.T) {
	entries := map[int64]*entry{
		1: entryOf(1, pathG(1, 2, 3), 10),
		2: entryOf(2, pathG(1, 2), 11),
		3: entryOf(3, pathG(7, 8)),
		4: entryOf(4, pathG(2, 3, 4), 12, 13),
		5: entryOf(5, pathG(5)),
	}
	ix := buildQueryIndex(entries, 4)

	added := []*entry{
		entryOf(6, pathG(1, 2, 3, 4), 14),
		entryOf(7, pathG(7, 8, 9)),
	}
	removed := []int64{2, 4}

	inc := ix.applyDelta(added, removed)

	next := map[int64]*entry{
		1: entries[1], 3: entries[3], 5: entries[5],
		6: added[0], 7: added[1],
	}
	scratch := buildQueryIndex(next, 4)

	if inc.size() != scratch.size() {
		t.Fatalf("size: incremental %d != scratch %d", inc.size(), scratch.size())
	}
	if !reflect.DeepEqual(inc.liveSerials(), scratch.liveSerials()) {
		t.Errorf("live serials: incremental %v != scratch %v", inc.liveSerials(), scratch.liveSerials())
	}
	if len(inc.entries) != len(scratch.entries) {
		t.Fatalf("entries: incremental %d != scratch %d", len(inc.entries), len(scratch.entries))
	}
	for s, e := range scratch.entries {
		if inc.entries[s] != e {
			t.Errorf("entry %d differs between incremental and scratch", s)
		}
	}
	// Untouched columns must be shared with the previous generation, not
	// copied. P(5)'s feature column (label 5 alone) is untouched by this
	// delta.
	id5 := pathfeat.VectorOf(pathfeat.SimplePaths(pathG(5), 4))[0].ID
	if &ix.cols[id5].postings[0] != &inc.cols[id5].postings[0] {
		t.Error("untouched column was rewritten; applyDelta must share it")
	}

	// The directory holds exactly the live entries' features, as in the
	// rebuild.
	if len(inc.cols) != len(scratch.cols) {
		t.Errorf("directory: incremental has %d columns, scratch %d", len(inc.cols), len(scratch.cols))
	}
	for id, col := range scratch.cols {
		if got := inc.cols[id].live; got != col.live {
			t.Errorf("column %x: incremental counts %d live postings, scratch %d", id, got, col.live)
		}
	}

	// Both must answer probes identically.
	for _, q := range []int64{1, 3, 6, 7} {
		qc := pathfeat.SimplePaths(next[q].g, 4)
		s1, p1 := inc.candidates(qc)
		s2, p2 := scratch.candidates(qc)
		if !eq64(s1, s2) || !eq64(p1, p2) {
			t.Errorf("probe %d: incremental (%v,%v) != scratch (%v,%v)", q, s1, p1, s2, p2)
		}
	}
}

// TestApplyDeltaCompaction pins the tombstone bound: once dead slots would
// outnumber live ones the delta falls back to a from-scratch compaction,
// renumbering slots and dropping dead postings.
func TestApplyDeltaCompaction(t *testing.T) {
	entries := map[int64]*entry{}
	for s := int64(1); s <= 6; s++ {
		entries[s] = entryOf(s, pathG(graph.Label(s), graph.Label(s+1)))
	}
	ix := buildQueryIndex(entries, 4)

	// Evict 4 of 6: dead(4) > live(3) after adding one → compaction.
	next := ix.applyDelta([]*entry{entryOf(7, pathG(9))}, []int64{1, 2, 3, 4})
	if got, want := next.size(), 3; got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	if got := len(next.serials); got != 3 {
		t.Errorf("slots = %d after compaction, want 3 (no tombstones)", got)
	}
	if want := []int64{5, 6, 7}; !eq64(next.liveSerials(), want) {
		t.Errorf("live serials = %v, want %v", next.liveSerials(), want)
	}

	// A small delta keeps tombstones instead: 1 dead of 3 live.
	small := next.applyDelta(nil, []int64{5})
	if got := len(small.serials); got != 3 {
		t.Errorf("slots = %d after small delta, want 3 (tombstone kept)", got)
	}
	if want := []int64{6, 7}; !eq64(small.liveSerials(), want) {
		t.Errorf("live serials = %v, want %v", small.liveSerials(), want)
	}
	// The tombstone keeps its slot but not the columns only it used
	// (label 5 alone, and the two directions of the 5–6 edge).
	if got, want := len(small.cols), len(buildQueryIndex(small.entries, 4).cols); got != want || got != len(next.cols)-3 {
		t.Errorf("directory has %d columns after the eviction, want %d (was %d)", got, want, len(next.cols))
	}
	// The tombstoned entry must not surface as a candidate.
	sub, super := small.candidates(pathfeat.SimplePaths(pathG(5, 6), 4))
	if len(sub) != 0 || len(super) != 0 {
		t.Errorf("tombstoned entry surfaced: sub=%v super=%v", sub, super)
	}
}

// TestApplyDeltaOutOfOrderInsert covers the concurrent-window corner: an
// added entry with a serial at or below the index's top slot must not
// break the slot-order-is-serial-order invariant — the delta rebuilds
// instead, and probes stay serial-ordered.
func TestApplyDeltaOutOfOrderInsert(t *testing.T) {
	entries := map[int64]*entry{
		3: entryOf(3, pathG(1, 2)),
		8: entryOf(8, pathG(1, 2, 3)),
	}
	ix := buildQueryIndex(entries, 4)
	// Serial 5 windows late (a slower concurrent caller).
	next := ix.applyDelta([]*entry{entryOf(5, pathG(2, 3))}, nil)
	if want := []int64{3, 5, 8}; !eq64(next.liveSerials(), want) {
		t.Fatalf("live serials = %v, want %v", next.liveSerials(), want)
	}
	sub, _ := next.candidates(pathfeat.SimplePaths(pathG(2), 4))
	if want := []int64{3, 5, 8}; !eq64(sub, want) {
		t.Errorf("sub candidates = %v, want %v (ascending serial)", sub, want)
	}
}

// TestApplyDeltaEnumeratesOnlyNewEntries pins the perf property: deriving
// the next index generation enumerates simple paths only for the added
// entries — never for already-cached ones.
func TestApplyDeltaEnumeratesOnlyNewEntries(t *testing.T) {
	entries := map[int64]*entry{
		1: entryOf(1, pathG(1, 2, 3)),
		2: entryOf(2, pathG(4, 5)),
		3: entryOf(3, pathG(6, 7, 8)),
	}
	ix := buildQueryIndex(entries, 4) // memoises vectors for 1..3

	added := []*entry{entryOf(4, pathG(9, 10)), entryOf(5, pathG(11))}
	before := pathfeat.SimplePathsCalls()
	ix.applyDelta(added, []int64{2})
	if got := pathfeat.SimplePathsCalls() - before; got != int64(len(added)) {
		t.Errorf("applyDelta ran SimplePaths %d times, want %d (added entries only)", got, len(added))
	}
}

// TestWindowSkipsAlreadyCachedIsomorph pins the concurrent-duplicate
// guard: a window entry isomorphic to an already-cached query (reachable
// only when two concurrent callers miss on the same query across window
// boundaries) is dropped at window time instead of consuming a second
// cache slot.
func TestWindowSkipsAlreadyCachedIsomorph(t *testing.T) {
	ds := moleculeDataset(10, 19)
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 10, WindowSize: 2})
	c.addToWindow(&windowEntry{e: &entry{serial: 1, g: pathG(1, 2, 3)}}, 1)
	c.addToWindow(&windowEntry{e: &entry{serial: 2, g: pathG(9)}}, 2) // fills window 1
	// Serial 3 is an isomorphic copy of cached serial 1.
	c.addToWindow(&windowEntry{e: &entry{serial: 3, g: pathG(1, 2, 3)}}, 3)
	c.addToWindow(&windowEntry{e: &entry{serial: 4, g: pathG(8)}}, 4) // fills window 2
	got := c.CachedSerials()
	want := []int64{1, 2, 4}
	if !eq64(got, want) {
		t.Errorf("cached serials = %v, want %v (serial 3 duplicates cached serial 1)", got, want)
	}
}

// TestCacheRebuildCostIsWindowBound asserts the end-to-end property over a
// real cache: across a whole workload, SimplePaths runs at most once per
// query (the GCindex probe) plus once per admitted entry — window rebuilds
// never re-enumerate already-cached graphs. The pre-fix implementation
// re-enumerated the entire cache on every window boundary, which on this
// workload (cache 20, window 5) would blow the bound several times over.
func TestCacheRebuildCostIsWindowBound(t *testing.T) {
	ds := moleculeDataset(40, 17)
	queries := typeAWorkload(ds, "ZZ", 150, 18)
	// GGSX's own filter uses pathfeat, so measure over an SI method (the
	// iso matchers never enumerate paths) — every call is the cache's.
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 20, WindowSize: 5})
	before := pathfeat.SimplePathsCalls()
	for _, q := range queries {
		c.Query(q.Graph)
	}
	c.Flush()
	calls := pathfeat.SimplePathsCalls() - before
	admitted := c.Totals().Admitted
	bound := int64(len(queries)) + admitted
	if calls > bound {
		t.Errorf("SimplePaths ran %d times over %d queries (%d admitted); want ≤ %d (probe + new entries only)",
			calls, len(queries), admitted, bound)
	}
}
