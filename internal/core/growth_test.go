package core

import (
	"fmt"
	"testing"

	"graphcache/internal/method"
)

// TestNothingGrowsWithTheSerial streams far more distinct queries than the
// cache holds and checks, as sizes, that every structure in it follows the
// live entries and none follows the number of queries served: GCindex
// columns and slots, statistics rows, reverse answer-index references and
// the pending window. (Before feature IDs were hashes, a vocabulary and a
// column directory dense over it grew with every unseen path feature.)
func TestNothingGrowsWithTheSerial(t *testing.T) {
	ds := moleculeDataset(150, 41)
	queries := typeAWorkload(ds, "UU", 5000, 43)
	for _, async := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("async=%v/shards=%d", async, shards), func(t *testing.T) {
				c := New(method.NewVF2Plus(ds), Options{
					CacheSize: 100, WindowSize: 20, Shards: shards, AsyncRebuild: async,
				})
				for i, q := range queries {
					c.Query(q.Graph)
					if (i+1)%1000 == 0 {
						c.Flush()
						checkSizedByLiveEntries(t, c, i+1)
					}
				}
				if ev := c.Totals().Evicted; ev < 1000 {
					t.Fatalf("only %d evictions: the stream does not churn the cache", ev)
				}
			})
		}
	}
}

// checkSizedByLiveEntries asserts the cache's structures are bounded by
// its live entries. The caller must have flushed pending rebuilds.
func checkSizedByLiveEntries(t *testing.T, c *Cache, served int) {
	t.Helper()
	live, pending := 0, 0
	for si, sh := range c.shards {
		ix := sh.index.Load()
		live += ix.live
		if len(ix.entries) != ix.live || len(ix.slotOf) != ix.live {
			t.Errorf("after %d, shard %d: %d entries and %d slot mappings for %d live",
				served, si, len(ix.entries), len(ix.slotOf), ix.live)
		}
		if len(ix.serials) > 2*ix.live {
			t.Errorf("after %d, shard %d: %d slots for %d live entries (tombstones must not outnumber them)",
				served, si, len(ix.serials), ix.live)
		}
		liveFeatures := make(map[uint64]struct{})
		answerRefs := 0
		for s, e := range ix.entries {
			for _, fc := range e.vec {
				liveFeatures[fc.ID] = struct{}{}
			}
			answerRefs += len(e.answer)
			for _, id := range e.answer {
				if _, ok := sh.byAnswer[id][s]; !ok {
					t.Errorf("after %d, shard %d: answer index misses graph %d of live serial %d", served, si, id, s)
				}
			}
			if len(sh.stats.Row(s)) == 0 {
				t.Errorf("after %d, shard %d: live serial %d has no statistics row", served, si, s)
			}
		}
		if len(ix.cols) != len(liveFeatures) {
			t.Errorf("after %d, shard %d: %d feature columns for %d features of live entries",
				served, si, len(ix.cols), len(liveFeatures))
		}
		if sh.stats.Len() != ix.live {
			t.Errorf("after %d, shard %d: %d statistics rows for %d live entries", served, si, sh.stats.Len(), ix.live)
		}
		refs := 0
		for _, serials := range sh.byAnswer {
			refs += len(serials)
		}
		if refs != answerRefs {
			t.Errorf("after %d, shard %d: %d answer-index references, live answers hold %d", served, si, refs, answerRefs)
		}
		sh.winMu.Lock()
		pending += len(sh.window)
		sh.winMu.Unlock()
	}
	if live > c.opts.CacheSize {
		t.Errorf("after %d: %d live entries exceed CacheSize %d", served, live, c.opts.CacheSize)
	}
	if pending >= c.opts.WindowSize {
		t.Errorf("after %d: %d pending window entries, window size %d", served, pending, c.opts.WindowSize)
	}
}
