package iso

import (
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

// union returns the disjoint union of a and b.
func union(a, b *graph.Graph) *graph.Graph {
	bd := graph.NewBuilder()
	for _, g := range []*graph.Graph{a, b} {
		off := int32(bd.NumVertices())
		for _, l := range g.Labels() {
			bd.AddVertex(l)
		}
		g.Edges(func(u, v int32) { bd.AddEdge(off+u, off+v) })
	}
	return bd.MustBuild()
}

// relabel returns g with every label shifted by off.
func relabel(g *graph.Graph, off graph.Label) *graph.Graph {
	bd := graph.NewBuilder()
	for _, l := range g.Labels() {
		bd.AddVertex(l + off)
	}
	g.Edges(bd.AddEdge)
	return bd.MustBuild()
}

// rewire returns g with one random edge moved onto a random non-edge. With
// samePair the new edge joins the same endpoint labels as the old one, so
// both of g's signatures are kept. Without it the labels differ, so the
// new edge's label pair occurs once more than in g. It returns nil when g
// has no such move.
func rewire(r *rand.Rand, g *graph.Graph, samePair bool) *graph.Graph {
	type edge struct{ u, v int32 }
	var edges, non []edge
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for v := u + 1; int(v) < g.NumVertices(); v++ {
			if g.HasEdge(u, v) {
				edges = append(edges, edge{u, v})
			} else {
				non = append(non, edge{u, v})
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}
	pair := func(e edge) [2]graph.Label {
		return [2]graph.Label{min(g.Label(e.u), g.Label(e.v)), max(g.Label(e.u), g.Label(e.v))}
	}
	drop := edges[r.Intn(len(edges))]
	var adds []edge
	for _, e := range non {
		if (pair(e) == pair(drop)) == samePair {
			adds = append(adds, e)
		}
	}
	if len(adds) == 0 {
		return nil
	}
	bd := graph.NewBuilder()
	for _, l := range g.Labels() {
		bd.AddVertex(l)
	}
	for _, e := range append(edges, adds[r.Intn(len(adds))]) {
		if e != drop {
			bd.AddEdge(e.u, e.v)
		}
	}
	return bd.MustBuild()
}

// TestMatchersAgree is the cross-matcher differential: brute, VF2, VF2+
// and GraphQL must return the same verdict on every pair. The three real
// matchers start from the shared quickReject screen. So the pair families
// aim at its corners next to plain random pairs: empty and single-vertex
// graphs, disconnected patterns and targets, label-disjoint pairs, pairs
// only the edge-label screen rejects, and pairs that pass every screen
// and fail in the search.
func TestMatchersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2017))
	empty := graph.NewBuilder().MustBuild()
	small := func() *graph.Graph { return randomGraph(r, 1+r.Intn(4), 1+r.Intn(3), 0.5) }
	big := func() *graph.Graph { return randomGraph(r, 3+r.Intn(7), 1+r.Intn(3), 0.35) }
	type pairGen func() (pattern, target *graph.Graph)
	families := []struct {
		name string
		gen  pairGen
	}{
		{"random", func() (*graph.Graph, *graph.Graph) { return small(), big() }},
		{"extracted", func() (*graph.Graph, *graph.Graph) { g := big(); return randomConnectedSubgraph(r, g, 4), g }},
		{"empty pattern", func() (*graph.Graph, *graph.Graph) { return empty, big() }},
		{"empty target", func() (*graph.Graph, *graph.Graph) { return small(), empty }},
		{"both empty", func() (*graph.Graph, *graph.Graph) { return empty, empty }},
		{"single vertex", func() (*graph.Graph, *graph.Graph) { return path(graph.Label(r.Intn(3))), big() }},
		{"single-vertex pair", func() (*graph.Graph, *graph.Graph) { return path(graph.Label(r.Intn(2))), path(graph.Label(r.Intn(2))) }},
		{"pattern larger", func() (*graph.Graph, *graph.Graph) { return big(), small() }},
		{"disconnected both", func() (*graph.Graph, *graph.Graph) { return union(small(), small()), union(big(), big()) }},
		{"disconnected target", func() (*graph.Graph, *graph.Graph) { return small(), union(small(), small()) }},
		{"label-disjoint", func() (*graph.Graph, *graph.Graph) { return relabel(small(), 100), big() }},
		{"one label missing", func() (*graph.Graph, *graph.Graph) {
			g := big()
			return union(randomConnectedSubgraph(r, g, 3), path(99)), g
		}},
		// The labels dominate, but one endpoint-label pair is one edge short.
		{"edge-pair reject", func() (*graph.Graph, *graph.Graph) {
			for {
				g := big()
				if p := rewire(r, g, false); p != nil {
					return p, g
				}
			}
		}},
		// Same vertices, same signatures, same sizes: only an isomorphism
		// embeds, and a moved edge rarely leaves one.
		{"edges pass, structure fails", func() (*graph.Graph, *graph.Graph) {
			for {
				g := big()
				if p := rewire(r, g, true); p != nil {
					return p, g
				}
			}
		}},
	}
	matchers := append([]Algorithm{Brute{}}, all()...)
	for _, f := range families {
		positives := 0
		for i := 0; i < 150; i++ {
			pattern, target := f.gen()
			want := Contains(matchers[0], pattern, target)
			if want {
				positives++
			}
			for _, a := range matchers[1:] {
				m, got := a.FindEmbedding(pattern, target)
				if got != want {
					t.Fatalf("%s #%d: %s says %v, brute says %v\npattern %v %v\ntarget %v %v",
						f.name, i, a.Name(), got, want, pattern, pattern.Labels(), target, target.Labels())
				}
				if got && !ValidEmbedding(pattern, target, m) {
					t.Fatalf("%s #%d: %s returned an invalid embedding", f.name, i, a.Name())
				}
			}
		}
		t.Logf("%-28s %3d/150 contained", f.name, positives)
	}
}

// TestQuickRejectIsSound pins the screen's one obligation: it never
// rejects a pair that has an embedding. Brute, which screens nothing but
// the vertex count, is the judge, over random pairs and over patterns
// extracted from their targets.
func TestQuickRejectIsSound(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const perFamily = 10000
	var embeds, rejected, edgeOnly int
	for i := 0; i < 2*perFamily; i++ {
		var pattern, target *graph.Graph
		if i < perFamily {
			target = randomGraph(r, 2+r.Intn(8), 1+r.Intn(3), 0.4)
			pattern = randomGraph(r, 1+r.Intn(4), 1+r.Intn(3), 0.5)
		} else {
			target = randomGraph(r, 3+r.Intn(10), 1+r.Intn(4), 0.3)
			pattern = randomConnectedSubgraph(r, target, 2+r.Intn(5))
		}
		_, ok := Brute{}.FindEmbedding(pattern, target)
		if ok {
			embeds++
		}
		if !quickReject(pattern, target) {
			continue
		}
		rejected++
		if target.LabelsDominate(pattern) && pattern.NumEdges() <= target.NumEdges() {
			edgeOnly++
		}
		if ok {
			t.Fatalf("pair %d: quickReject rejects an embeddable pair\npattern %v %v\ntarget %v %v",
				i, pattern, pattern.Labels(), target, target.Labels())
		}
	}
	t.Logf("%d pairs: %d embed, %d rejected by the screen (%d by the edge-label screen alone)",
		2*perFamily, embeds, rejected, edgeOnly)
	if embeds == 0 || edgeOnly == 0 {
		t.Fatal("the pair families must exercise both embeddings and the edge-label screen")
	}
}

// containsCases are one pattern/target pair per way a test can end: an
// embedding exists, the label screen rejects, the edge-label screen
// rejects, or every screen passes and the search fails.
func containsCases() map[string][2]*graph.Graph {
	target := cycle(1, 2, 1, 2, 3, 1, 2, 1, 3, 2, 1, 2) // no edge joins two equal labels
	return map[string][2]*graph.Graph{
		"hit":              {path(2, 1, 3, 2, 1), target},
		"label-reject":     {path(1, 2, 4), target},
		"edge-reject":      {path(2, 1, 1, 2), target},
		"structure-reject": {star(1, 2, 2, 3), target}, // the cycle has no vertex of degree 3
	}
}

func BenchmarkContains(b *testing.B) {
	for _, a := range []Algorithm{VF2{}, VF2Plus{}} {
		for name, pt := range containsCases() {
			b.Run(a.Name()+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					Contains(a, pt[0], pt[1])
				}
			})
		}
	}
}
