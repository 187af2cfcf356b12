package router

import (
	"math/rand"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

// TestAffinityHashPinned: the router's affinity hash is, for every query,
// the hash of the map-built path-feature counts — the value backends store
// on their entries (core's TestEntryHashIsTheCountsHash pins that side) and
// warm snapshots were homed by. If it moved, every ring home would.
func TestAffinityHashPinned(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vertexOf := func(l graph.Label) *graph.Graph {
		b := graph.NewBuilder()
		b.AddVertex(l)
		return b.MustBuild()
	}
	// Labels from 256 up exercise the high byte of a label's key.
	relabelled := func(g *graph.Graph) *graph.Graph {
		b := graph.NewBuilder()
		for v := 0; v < g.NumVertices(); v++ {
			b.AddVertex(g.Label(int32(v))*97 + 200)
		}
		g.Edges(b.AddEdge)
		return b.MustBuild()
	}
	queries := []*graph.Graph{graph.NewBuilder().MustBuild(), vertexOf(3), vertexOf(4096)}
	for _, g := range gen.DefaultAIDS().Scaled(0.001, 1).Generate(r.Int63()).Graphs() {
		queries = append(queries, g, relabelled(g))
	}
	big := 0
	for _, maxLen := range []int{4, 2} {
		rt := &Router{opts: Options{MaxPathLen: maxLen}}
		for i, q := range queries {
			if q.NumVertices() > 64 {
				big++
			}
			want := pathfeat.HashVector(pathfeat.VectorOf(pathfeat.SimplePaths(q, maxLen)))
			if got := rt.hash(q); got != want {
				t.Fatalf("query %d (%d vertices), MaxPathLen %d: affinity hash %x, HashVector(VectorOf(SimplePaths)) = %x",
					i, q.NumVertices(), maxLen, got, want)
			}
		}
	}
	if big == 0 {
		t.Error("no query with more than 64 vertices in the sample")
	}
}
