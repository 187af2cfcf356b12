package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// indexDiff describes the first array in which a and b differ, or returns
// "" when they are equal array for array.
func indexDiff(a, b *queryIndex) string {
	switch {
	case !slices.Equal(a.serials, b.serials):
		return fmt.Sprintf("serials %v, want %v", a.serials, b.serials)
	case !slices.Equal(a.hashes, b.hashes):
		return "hashes differ"
	case !slices.Equal(a.featureTotal, b.featureTotal):
		return fmt.Sprintf("feature totals %v, want %v", a.featureTotal, b.featureTotal)
	case !slices.Equal(a.slotEntry, b.slotEntry):
		return "slot entries differ"
	case !slices.Equal(a.cols.Feats, b.cols.Feats):
		return fmt.Sprintf("%d columns, want %d", len(a.cols.Feats), len(b.cols.Feats))
	case !slices.Equal(a.cols.Ends, b.cols.Ends):
		return "column ends differ"
	case !slices.Equal(a.cols.IDs, b.cols.IDs):
		return "posting slots differ"
	case !slices.Equal(a.cols.Counts, b.cols.Counts):
		return "posting counts differ"
	}
	return ""
}

// snapshotIndex copies every array of ix, so a test can check later that
// nothing wrote to them.
func snapshotIndex(ix *queryIndex) *queryIndex {
	return &queryIndex{
		maxLen:       ix.maxLen,
		serials:      slices.Clone(ix.serials),
		hashes:       slices.Clone(ix.hashes),
		featureTotal: slices.Clone(ix.featureTotal),
		slotEntry:    slices.Clone(ix.slotEntry),
		cols: pathfeat.Columns{
			Feats:  slices.Clone(ix.cols.Feats),
			Ends:   slices.Clone(ix.cols.Ends),
			IDs:    slices.Clone(ix.cols.IDs),
			Counts: slices.Clone(ix.cols.Counts),
		},
	}
}

// TestApplyDeltaMatchesFromScratch asserts the maintenance invariant: the
// generation applyDelta derives equals, array for array, the index built
// from scratch over the resulting contents — through seeded rounds that
// evict, admit in and out of serial order, re-add a live serial with a new
// entry, name serials that are not indexed, and evict every entry — and
// the generation it derives from is left untouched.
func TestApplyDeltaMatchesFromScratch(t *testing.T) {
	const maxPathLen = 4
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		contents := map[int64]*entry{}
		for s := int64(1); s <= 10; s++ {
			contents[s] = entryOf(s, randomConnGraph(r, 2+r.Intn(7), r.Intn(3), 3))
		}
		ix := indexOf(contents, maxPathLen)
		next := int64(20)
		for round := 0; round < 8; round++ {
			var removed []int64
			var added []*entry
			switch {
			case round == 7: // evict every entry
				removed = slices.Clone(ix.serials)
			default:
				for _, s := range ix.serials {
					if r.Intn(4) == 0 {
						removed = append(removed, s)
					}
				}
				removed = append(removed, next+100) // not indexed: ignored
				for i := 0; i < r.Intn(5); i++ {
					s := next
					switch r.Intn(4) {
					case 0: // out of order: below serials already indexed
						s = int64(r.Intn(int(next)))
					case 1: // re-add a live serial with a new entry
						if len(ix.serials) > 0 {
							s = ix.serials[r.Intn(len(ix.serials))]
						}
					default:
						next++
					}
					added = append(added, entryOf(s, randomConnGraph(r, 2+r.Intn(7), r.Intn(3), 3)))
				}
			}
			for _, s := range removed {
				delete(contents, s)
			}
			for _, e := range added {
				contents[e.serial] = e // the last of equal serials wins
			}

			before := snapshotIndex(ix)
			inc := ix.applyDelta(added, removed)
			if d := indexDiff(ix, before); d != "" {
				t.Fatalf("trial %d round %d: applyDelta wrote to the generation it read: %s", trial, round, d)
			}
			if d := indexDiff(inc, indexOf(contents, maxPathLen)); d != "" {
				t.Fatalf("trial %d round %d: delta differs from a fresh build: %s", trial, round, d)
			}
			ix = inc
		}
		if len(ix.serials) != 0 || len(ix.cols.Feats) != 0 || len(ix.cols.IDs) != 0 {
			t.Fatalf("trial %d: evicting every entry left %d slots, %d columns", trial, len(ix.serials), len(ix.cols.Feats))
		}
	}
}

// TestApplyDeltaCompaction pins that evictions leave nothing behind: the
// generation after a delta has one slot per live entry and a column only
// for features a live entry holds, so an evicted entry never surfaces as a
// candidate.
func TestApplyDeltaCompaction(t *testing.T) {
	entries := map[int64]*entry{}
	for s := int64(1); s <= 6; s++ {
		entries[s] = entryOf(s, pathG(graph.Label(s), graph.Label(s+1)))
	}
	ix := indexOf(entries, 4)

	next := ix.applyDelta([]*entry{entryOf(7, pathG(9))}, []int64{1, 2, 3, 4})
	if want := []int64{5, 6, 7}; !eq64(next.serials, want) {
		t.Errorf("slots hold %v, want %v", next.serials, want)
	}
	small := next.applyDelta(nil, []int64{5})
	if want := []int64{6, 7}; !eq64(small.serials, want) {
		t.Errorf("slots hold %v, want %v", small.serials, want)
	}
	// Evicting 5 drops the columns only it used: label 5 alone and the
	// two directions of the 5–6 edge.
	if got := len(small.cols.Feats); got != len(next.cols.Feats)-3 {
		t.Errorf("%d columns after the eviction, want %d", got, len(next.cols.Feats)-3)
	}
	sub, super := small.candidates(pathfeat.SimplePaths(pathG(5, 6), 4))
	if len(sub) != 0 || len(super) != 0 {
		t.Errorf("evicted entry surfaced: sub=%v super=%v", sub, super)
	}
}

// TestApplyDeltaOutOfOrderInsert covers the concurrent-window corner: an
// added entry with a serial below the index's top slot takes its place in
// serial order, so probes stay serial-ordered.
func TestApplyDeltaOutOfOrderInsert(t *testing.T) {
	entries := map[int64]*entry{
		3: entryOf(3, pathG(1, 2)),
		8: entryOf(8, pathG(1, 2, 3)),
	}
	ix := indexOf(entries, 4)
	// Serial 5 windows late (a slower concurrent caller).
	next := ix.applyDelta([]*entry{entryOf(5, pathG(2, 3))}, nil)
	if want := []int64{3, 5, 8}; !eq64(next.serials, want) {
		t.Fatalf("serials = %v, want %v", next.serials, want)
	}
	sub, _ := next.candidates(pathfeat.SimplePaths(pathG(2), 4))
	if want := []int64{3, 5, 8}; !eq64(sub, want) {
		t.Errorf("sub candidates = %v, want %v (ascending serial)", sub, want)
	}
}

// TestApplyDeltaEnumeratesOnlyNewEntries pins the perf property: deriving
// the next index generation enumerates no simple paths at all — added
// entries arrive with the vectors the query path extracted, and cached
// ones keep theirs.
func TestApplyDeltaEnumeratesOnlyNewEntries(t *testing.T) {
	entries := map[int64]*entry{
		1: entryOf(1, pathG(1, 2, 3)),
		2: entryOf(2, pathG(4, 5)),
		3: entryOf(3, pathG(6, 7, 8)),
	}
	ix := indexOf(entries, 4)

	added := []*entry{entryOf(4, pathG(9, 10)), entryOf(5, pathG(11))}
	before := pathfeat.SimplePathsCalls()
	ix.applyDelta(added, []int64{2})
	if got := pathfeat.SimplePathsCalls() - before; got != 0 {
		t.Errorf("applyDelta ran SimplePaths %d times, want 0", got)
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
	c.addToWindow(entryOf(1, pathG(1, 2, 3)), 1)
	c.addToWindow(entryOf(2, pathG(9)), 2) // fills window 1
	// Serial 3 is an isomorphic copy of cached serial 1.
	c.addToWindow(entryOf(3, pathG(1, 2, 3)), 3)
	c.addToWindow(entryOf(4, pathG(8)), 4) // fills window 2
	got := c.CachedSerials()
	want := []int64{1, 2, 4}
	if !eq64(got, want) {
		t.Errorf("cached serials = %v, want %v (serial 3 duplicates cached serial 1)", got, want)
	}
}

// TestCacheRebuildCostIsWindowBound asserts the end-to-end property over a
// real cache: across a whole workload, SimplePaths runs at most once per
// query — the extraction whose vector the filter, the probe and the new
// entry share — and window passes never enumerate a graph. The pre-fix
// implementation re-enumerated the entire cache on every window boundary,
// which on this workload (cache 20, window 5) would blow the bound several
// times over.
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
	if calls > int64(len(queries)) {
		t.Errorf("SimplePaths ran %d times over %d queries; want at most one per query", calls, len(queries))
	}
}
