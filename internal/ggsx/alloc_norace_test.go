//go:build !race

package ggsx

import (
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// TestDeltaRebuildAllocations pins a mutation's delta rebuild at a fixed
// number of allocations, whatever the delta holds: adding one graph to an
// index that does not compact allocates as often with an empty delta as
// with one of 20k postings. The same graphs are added in both cases.
func TestDeltaRebuildAllocations(t *testing.T) {
	const runs = 20
	var counts []float64
	for _, filled := range []int{0, 20000} {
		ds := gen.DefaultAIDS().Scaled(0.02, 1).Generate(20170321)
		idx := New(ds, Options{})
		base := ds.Graphs()
		for i := len(base) - 1; len(idx.delta.IDs) < filled; i-- {
			gs := []*graph.Graph{base[i].Clone()}
			ds.AddGraphs(gs)
			idx.ApplyDatasetMutation(gs, nil, nil)
		}
		pending := make([]*graph.Graph, runs+1) // AllocsPerRun adds a warm-up run
		for i := range pending {
			pending[i] = base[i].Clone()
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			gs := pending[next : next+1]
			next++
			ds.AddGraphs(gs)
			idx.ApplyDatasetMutation(gs, nil, nil)
		})
		if len(idx.delta.IDs) <= filled {
			t.Fatalf("delta of %d postings after adding to one of %d: the index compacted", len(idx.delta.IDs), filled)
		}
		t.Logf("delta of %d postings: %.0f allocations per added graph", filled, allocs)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("adding a graph allocates %v times with an empty and a 20k-posting delta, want one count", counts)
	}
}
