//go:build !race

package graph

import (
	"math/rand"
	"testing"
)

// TestBuildAllocations pins that Build's allocation count does not grow
// with the graph: the adjacency is two flat slices and both signatures
// sort on the stack, so a 60-vertex molecule costs what a 5-vertex query
// does. That is six allocations: the Graph, its labels, off, nbr and the
// two signatures. The race detector allocates on its own account, so this
// file is not built under -race.
func TestBuildAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	allocs := func(n int) float64 {
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddVertex(Label(r.Intn(6)))
		}
		// A molecule-like shape: a random tree plus a few ring closures.
		for v := 1; v < n; v++ {
			b.AddEdge(int32(r.Intn(v)), int32(v))
		}
		for k := 0; k < n/10+1; k++ {
			if u, v := int32(r.Intn(n)), int32(r.Intn(n)); u != v {
				b.AddEdge(u, v)
			}
		}
		return testing.AllocsPerRun(50, func() { b.MustBuild() })
	}
	small, large := allocs(5), allocs(60)
	if small != large || large > 6 {
		t.Errorf("Build allocates %v times for 5 vertices and %v for 60, want the same count, at most 6", small, large)
	}
}
