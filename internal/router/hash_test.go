package router

import (
	"math/rand"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// TestAffinityHashPinned: the router's affinity key is, for every query,
// the query's graph.IsoKey — the key backends store on their entries
// (core's TestEntryHashIsTheCountsHash pins that side) and warm snapshots
// were homed by — whether the router reads it off a binary request's
// body or transcodes a text request, and a renumbered copy of the query
// keys the same. If it moved, every ring home would.
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
	reversed := func(g *graph.Graph) *graph.Graph {
		n := int32(g.NumVertices())
		b := graph.NewBuilder()
		for v := n - 1; v >= 0; v-- {
			b.AddVertex(g.Label(v))
		}
		g.Edges(func(u, v int32) { b.AddEdge(n-1-u, n-1-v) })
		return b.MustBuild()
	}
	big := 0
	keys := wireBodies(t, queries...)
	renumbered := make([]*graph.Graph, len(queries))
	for i, q := range queries {
		renumbered[i] = reversed(q)
	}
	renumberedKeys := wireBodies(t, renumbered...)
	textKeys := graph.EncodeBodies(queries)
	for i, q := range queries {
		if q.NumVertices() > 64 {
			big++
		}
		if got, want := keys[i].Key, q.IsoKey(); got != want {
			t.Fatalf("query %d (%d vertices): affinity key %x, IsoKey %x", i, q.NumVertices(), got, want)
		}
		if got, want := textKeys[i].Key, keys[i].Key; got != want {
			t.Fatalf("query %d (%d vertices): transcoded text keys %x, the binary body %x", i, q.NumVertices(), got, want)
		}
		if got, want := renumberedKeys[i].Key, keys[i].Key; got != want {
			t.Fatalf("query %d (%d vertices): renumbered copy keys %x, the query %x", i, q.NumVertices(), got, want)
		}
	}
	if big == 0 {
		t.Error("no query with more than 64 vertices in the sample")
	}
}

// wireBodies returns qs as the router reads them off a binary request:
// their bodies, keyed.
func wireBodies(t testing.TB, qs ...*graph.Graph) []graph.Body {
	t.Helper()
	frame, err := graph.EncodeBinary(qs)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := graph.SplitBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	return bodies
}
