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

// TestMatchersAgree is the cross-matcher differential: brute, VF2, VF2+
// and GraphQL must return the same verdict on every pair. All four start from the shared quickReject screen, so the pair families aim
// at its corners — empty and single-vertex graphs, disconnected patterns
// and targets, label-disjoint pairs — next to plain random pairs.
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
		t.Logf("%-20s %3d/150 contained", f.name, positives)
	}
}

// containsCases are one pattern/target pair per way a test can end: an
// embedding exists, the label screen rejects, or the labels pass and the
// structure does not.
func containsCases() map[string][2]*graph.Graph {
	target := cycle(1, 2, 1, 2, 3, 1, 2, 1, 3, 2, 1, 2)
	return map[string][2]*graph.Graph{
		"hit":              {path(2, 1, 3, 2, 1), target},
		"label-reject":     {path(1, 2, 4), target},
		"structure-reject": {star(1, 2, 2, 3), target}, // the cycle has no vertex of degree 3
	}
}

// TestContainsAllocations pins what the label signature bought: a test the
// label screen rejects allocates nothing, and a test that runs the matcher
// allocates only its flat per-search state — a handful of slices, no maps.
func TestContainsAllocations(t *testing.T) {
	ceilings := map[string]float64{"hit": 8, "label-reject": 0, "structure-reject": 8}
	for _, a := range []Algorithm{VF2{}, VF2Plus{}} {
		for name, pt := range containsCases() {
			want := name == "hit"
			if got := Contains(a, pt[0], pt[1]); got != want {
				t.Fatalf("%s/%s: Contains = %v, want %v", a.Name(), name, got, want)
			}
			if n := testing.AllocsPerRun(50, func() { Contains(a, pt[0], pt[1]) }); n > ceilings[name] {
				t.Errorf("%s/%s: %v allocs per test, want ≤ %v", a.Name(), name, n, ceilings[name])
			}
		}
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
