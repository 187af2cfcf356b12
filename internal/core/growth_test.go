package core

import (
	"testing"

	"graphcache/internal/method"
)

// TestNothingGrowsWithTheSerial streams far more distinct queries than the
// cache holds and checks, as sizes, that every structure in it follows the
// live entries and none follows the number of queries served: GCindex
// columns and slots, and the pending window. Statistics live on the
// entries, so they leave with them. (Before
// feature IDs were hashes, a vocabulary and a column directory dense over
// it grew with every unseen path feature.)
func TestNothingGrowsWithTheSerial(t *testing.T) {
	ds := moleculeDataset(150, 41)
	queries := typeAWorkload(ds, "UU", 5000, 43)
	c := New(method.NewVF2Plus(ds), Options{})
	for i, q := range queries {
		c.Query(q.Graph)
		if (i+1)%1000 == 0 {
			checkSizedByLiveEntries(t, c, i+1)
		}
	}
	if ev := c.Totals().Evicted; ev < 1000 {
		t.Fatalf("only %d evictions: the stream does not churn the cache", ev)
	}
}

// checkSizedByLiveEntries asserts the cache's structures are sized by its
// live entries: one GCindex slot per live entry and one column per feature
// a live entry holds. No window pass may be pending: a lone caller's
// passes are applied before its Query returns.
func checkSizedByLiveEntries(t *testing.T, c *Cache, served int) {
	t.Helper()
	ix := c.index.Load()
	n := len(ix.serials)
	if len(ix.hashes) != n || len(ix.featureTotal) != n || len(ix.slotEntry) != n {
		t.Errorf("after %d: per-slot arrays of %d, %d, %d for %d slots",
			served, len(ix.hashes), len(ix.featureTotal), len(ix.slotEntry), n)
	}
	liveFeatures := make(map[uint64]struct{})
	for slot, e := range ix.slotEntry {
		s := ix.serials[slot]
		if e == nil || e.serial != s {
			t.Fatalf("after %d: slot %d of serial %d holds %v", served, slot, s, e)
		}
		for _, fc := range e.vec {
			liveFeatures[fc.ID] = struct{}{}
		}
	}
	if len(ix.cols.Feats) != len(liveFeatures) {
		t.Errorf("after %d: %d feature columns for %d features of live entries",
			served, len(ix.cols.Feats), len(liveFeatures))
	}
	if n > c.opts.CacheSize {
		t.Errorf("after %d: %d live entries exceed CacheSize %d", served, n, c.opts.CacheSize)
	}
	c.winMu.Lock()
	pending := len(c.window)
	c.winMu.Unlock()
	if pending >= c.opts.WindowSize {
		t.Errorf("after %d: %d pending window entries, window size %d", served, pending, c.opts.WindowSize)
	}
}
