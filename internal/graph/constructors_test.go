package graph_test

import (
	"math/rand"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/graph"
)

// built is a graph next to the edge list it was built from.
type built struct {
	g     *graph.Graph
	edges [][2]int32
}

// randomBuilt builds a random graph from a shuffled edge list that gives
// edges in either orientation and repeats some of them.
func randomBuilt(r *rand.Rand, n, labels int, p float64) built {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	var edges [][2]int32
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if r.Float64() >= p {
				continue
			}
			e := [2]int32{u, v}
			if r.Intn(2) == 0 {
				e = [2]int32{v, u}
			}
			edges = append(edges, e)
			if r.Intn(8) == 0 {
				edges = append(edges, [2]int32{e[1], e[0]})
			}
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return built{b.MustBuild(), edges}
}

// edgeSet returns edges as a set of (lower, upper) endpoint pairs.
func edgeSet(edges [][2]int32) map[[2]int32]bool {
	set := make(map[[2]int32]bool, len(edges))
	for _, e := range edges {
		set[[2]int32{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	return set
}

// TestSignatureSurvivesEveryConstructor pins both signatures, the
// summary, the shape words and the CSR adjacency on every way a Graph
// comes into being: Builder.Build, both codecs, Clone, InducedSubgraph and
// dataset.ApplyEdgeEdits. Each result is checked against a recount from
// the edge list it should hold.
func TestSignatureSurvivesEveryConstructor(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	one := graph.NewBuilder()
	one.AddVertex(5)
	three := graph.NewBuilder()
	for range 3 {
		three.AddVertex(3)
	}
	three.AddEdge(0, 1)
	three.AddEdge(2, 1)
	cases := []built{
		{graph.NewBuilder().MustBuild(), nil},
		{one.MustBuild(), nil},
		{three.MustBuild(), [][2]int32{{0, 1}, {1, 2}}},
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, randomBuilt(r, 1+r.Intn(90), 1+r.Intn(6), 0.1))
	}
	gs := make([]*graph.Graph, len(cases))
	for i, c := range cases {
		gs[i] = c.g
	}
	text, err := graph.EncodeText(gs)
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := graph.DecodeText(text)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := graph.EncodeBinary(gs)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := graph.DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		g := c.g
		graph.CheckSignature(t, "built", g, c.edges)
		graph.CheckSignature(t, "text", fromText[i], c.edges)
		graph.CheckSignature(t, "binary", fromBin[i], c.edges)
		graph.CheckSignature(t, "clone", g.Clone(), c.edges)
		for _, other := range []*graph.Graph{fromText[i], fromBin[i], g.Clone()} {
			if !g.StructurallyEqual(other) {
				t.Errorf("graph %d: a round-tripped copy must equal the original", i)
			}
			if !g.LabelsDominate(other) || !other.LabelsDominate(g) || !g.EdgesDominate(other) || !other.EdgesDominate(g) ||
				!g.ShapesDominate(other) || !other.ShapesDominate(g) {
				t.Errorf("graph %d: a round-tripped copy must dominate and be dominated", i)
			}
		}
		set := edgeSet(c.edges)
		n := g.NumVertices()
		if n == 0 {
			continue
		}

		// A random vertex subset in random order.
		vs := r.Perm(n)[:1+r.Intn(n)]
		sel := make([]int32, len(vs))
		for j, v := range vs {
			sel[j] = int32(v)
		}
		sub, _, err := g.InducedSubgraph(sel)
		if err != nil {
			t.Fatal(err)
		}
		var subEdges [][2]int32
		for a := range sel {
			for b := a + 1; b < len(sel); b++ {
				if set[[2]int32{min(sel[a], sel[b]), max(sel[a], sel[b])}] {
					subEdges = append(subEdges, [2]int32{int32(a), int32(b)})
				}
			}
		}
		graph.CheckSignature(t, "induced", sub, subEdges)
		if !g.LabelsDominate(sub) || !g.EdgesDominate(sub) || !g.ShapesDominate(sub) {
			t.Errorf("graph %d must dominate its induced subgraph", i)
		}

		// Delete up to two edges and insert up to two non-edges.
		var edits []dataset.EdgeEdit
		after := make(map[[2]int32]bool, len(set))
		for e := range set {
			after[e] = true
		}
		for e := range set {
			if len(edits) == 2 {
				break
			}
			edits = append(edits, dataset.EdgeEdit{U: e[1], V: e[0], Del: true})
			delete(after, e)
		}
		for try := 0; try < 20 && n > 1 && len(edits) < 4; try++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			e := [2]int32{min(u, v), max(u, v)}
			if u == v || set[e] || after[e] {
				continue
			}
			edits = append(edits, dataset.EdgeEdit{U: u, V: v})
			after[e] = true
		}
		edited, err := dataset.ApplyEdgeEdits(g, edits)
		if err != nil {
			t.Fatal(err)
		}
		var afterEdges [][2]int32
		for e := range after {
			afterEdges = append(afterEdges, e)
		}
		graph.CheckSignature(t, "edited", edited, afterEdges)
	}
}
