//go:build !race

package core

import (
	"testing"

	"graphcache/internal/ggsx"
)

// TestExactHitAllocations pins what an exact hit costs the allocator: the
// run's state, the feature vector (pathfeat pins that at ≤ 4), the
// snapshot list, the credit ops and the delivered copy of the answer — and
// nothing of the filter goroutine, the probe's list or the confirmation
// work list it no longer starts. Not under -race: the detector's own
// bookkeeping allocates.
func TestExactHitAllocations(t *testing.T) {
	ds := moleculeDataset(30, 35)
	queries := typeAWorkload(ds, "ZZ", 40, 36)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 40, WindowSize: 5, Shards: 2})
	for _, q := range queries {
		c.Query(q.Graph)
	}
	c.Flush()
	q := queries[0].Graph
	if !c.Query(q).Stats.ExactHit {
		t.Fatal("the repeated query was not an exact hit")
	}
	const ceiling = 20 // 17 measured; 39 before the lookup
	if allocs := testing.AllocsPerRun(100, func() { c.Query(q) }); allocs > ceiling {
		t.Errorf("an exact-hit Query allocates %.0f times, want ≤ %d", allocs, ceiling)
	} else {
		t.Logf("an exact-hit Query allocates %.0f times", allocs)
	}
}
