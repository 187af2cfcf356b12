package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"graphcache/internal/method"
)

// checkEntryStats asserts that the statistics rows describe exactly the
// cached queries, in serial order, and agree with their graphs and with
// themselves. The caller must have flushed pending window passes.
func checkEntryStats(t *testing.T, c *Cache) {
	t.Helper()
	rows, cached := c.EntryStats(), c.CachedSerials()
	if len(rows) != len(cached) {
		t.Fatalf("%d statistics rows for %d cached queries", len(rows), len(cached))
	}
	for i, r := range rows {
		if r.Serial != cached[i] {
			t.Fatalf("row %d has serial %d, the cache holds %d there", i, r.Serial, cached[i])
		}
		g, _, _ := c.CachedEntry(r.Serial)
		if r.Nodes != g.NumVertices() || r.Edges != g.NumEdges() || r.Labels != g.DistinctLabels() {
			t.Errorf("serial %d: row says %d/%d/%d vertices/edges/labels, its graph has %d/%d/%d",
				r.Serial, r.Nodes, r.Edges, r.Labels, g.NumVertices(), g.NumEdges(), g.DistinctLabels())
		}
		if r.LastHit < r.Serial || r.SpecialHits > r.Hits || r.CSReduction < 0 || r.TimeSaving < 0 {
			t.Errorf("serial %d: inconsistent row %+v", r.Serial, r)
		}
	}
}

// TestMaxOpKeepsNewestSerial pins the recency rule for concurrent
// crediting: runs land their credits in any order, so a credit from an
// older serial that lands after a newer one must not lower the entry's
// last hit.
func TestMaxOpKeepsNewestSerial(t *testing.T) {
	e := entryOf(1, pathG(1, 2))
	(&hitCredit{e: e, by: 12}).apply()
	(&hitCredit{e: e, by: 10}).apply() // older serial lands late
	if e.lastHit != 12 || e.hits != 2 {
		t.Errorf("last hit %d after %d hits, want 12 after 2 (an older serial must not overwrite a newer one)", e.lastHit, e.hits)
	}
}

// TestCreditAfterEvictionLeavesNoTrace: a run may verify against an index
// generation whose entry a window pass has evicted meanwhile, and credit it
// afterwards. The credit lands on the evicted entry alone — neither
// EntryStats nor a snapshot shows it.
func TestCreditAfterEvictionLeavesNoTrace(t *testing.T) {
	ds := moleculeDataset(30, 57)
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 1, WindowSize: 1})
	qs := typeAWorkload(ds, "UU", 2, 58)
	c.Query(qs[0].Graph)
	evicted := c.index.Load().slotEntry[0]
	c.Query(qs[1].Graph) // W = 1, C = 1: evicts the first query
	if _, _, ok := c.CachedEntry(evicted.serial); ok {
		t.Fatal("the first query is still cached")
	}

	var before bytes.Buffer
	if err := c.WriteSnapshot(&before); err != nil {
		t.Fatal(err)
	}
	rows := c.EntryStats()
	c.totMu.Lock()
	(&hitCredit{e: evicted, by: 99, removed: 5, saved: 7, special: true}).apply()
	c.totMu.Unlock()

	if got := c.EntryStats(); !reflect.DeepEqual(got, rows) {
		t.Errorf("a credit to an evicted entry changed the statistics rows: %+v, was %+v", got, rows)
	}
	var after bytes.Buffer
	if err := c.WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Error("a credit to an evicted entry changed the snapshot")
	}
}

// TestIsomorphicRepeatCreditedOnce: with the exact lookup off, an
// isomorphic repeat finds its cached copy both as a container and as a
// containee. The copy is credited once per role: the answer it moved to the
// direct answers, and the rest of CS_M it pruned — R = |CS_M| in all, and
// C the estimated cost of CS_M. (Credits keyed by serial let the
// restrictor's removal overwrite the provider's and counted it twice.)
func TestIsomorphicRepeatCreditedOnce(t *testing.T) {
	ds := moleculeDataset(60, 5)
	c := New(method.NewVF2(ds), Options{CacheSize: 10, WindowSize: 1, DisableExactMatch: true})
	q := typeAWorkload(ds, "UU", 1, 1)[0].Graph
	first := c.Query(q)
	repeat := c.Query(q)
	if repeat.Stats.Containers != 1 || repeat.Stats.Containees != 1 || repeat.Stats.DirectAnswers == 0 {
		t.Fatalf("the repeat was not matched as both container and containee: %+v", repeat.Stats)
	}
	var row EntryStats
	for _, r := range c.EntryStats() {
		if r.Serial == first.Stats.Serial {
			row = r
		}
	}
	if row.Serial == 0 {
		t.Fatal("the first query is not cached")
	}
	if row.Hits != 2 || row.CSReduction != int64(repeat.Stats.CandidatesM) {
		t.Errorf("hits %d, cs_reduction %d; want 2 and |CS_M| = %d", row.Hits, row.CSReduction, repeat.Stats.CandidatesM)
	}
	if math.Abs(row.TimeSaving-row.OwnCost) > 1e-9*row.OwnCost {
		t.Errorf("time_saving %g, want the estimated cost of CS_M %g", row.TimeSaving, row.OwnCost)
	}
}
