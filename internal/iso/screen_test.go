package iso

import (
	"math/rand"
	"slices"
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

// widePair returns a pattern and a target over a wide alphabet: labels
// range over 0–300. Each target has 18–27 vertices, 16 of them labelled l
// and the rest drawn from l, l+16, l+64 and two random labels, so bits and
// lanes collide and l's lane saturates. The pattern is a connected piece of the target, the same piece with
// one label moved to a colliding one, or a random graph over the target's
// labels: pairs that embed, pairs only the signature merges tell apart,
// and pairs the summary screen rejects.
func widePair(r *rand.Rand) (pattern, target *graph.Graph) {
	base := graph.Label(r.Intn(300 - 64))
	pool := []graph.Label{base, base + 16, base + 64, graph.Label(r.Intn(301)), graph.Label(r.Intn(301))}
	n := 18 + r.Intn(10)
	labels := make([]graph.Label, n)
	for i := range labels {
		labels[i] = base
		if i >= 16 {
			labels[i] = pool[r.Intn(len(pool))]
		}
	}
	r.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	bd := graph.NewBuilder()
	for _, l := range labels {
		bd.AddVertex(l)
	}
	for v := 1; v < n; v++ {
		bd.AddEdge(int32(r.Intn(v)), int32(v))
	}
	for k := 0; k < n/3; k++ {
		if u, v := int32(r.Intn(n)), int32(r.Intn(n)); u != v {
			bd.AddEdge(u, v)
		}
	}
	target = bd.MustBuild()
	switch r.Intn(3) {
	case 0:
		pattern = randomConnectedSubgraph(r, target, 2+r.Intn(6))
	case 1:
		piece := randomConnectedSubgraph(r, target, 2+r.Intn(6))
		pb := graph.NewBuilder()
		moved := r.Intn(piece.NumVertices())
		for v, l := range piece.Labels() {
			if v == moved {
				l += []graph.Label{16, 64, 128}[r.Intn(3)]
			}
			pb.AddVertex(l)
		}
		piece.Edges(pb.AddEdge)
		pattern = pb.MustBuild()
	default:
		pb := graph.NewBuilder()
		k := 2 + r.Intn(4)
		for i := 0; i < k; i++ {
			pb.AddVertex(pool[r.Intn(len(pool))])
		}
		for v := 1; v < k; v++ {
			pb.AddEdge(int32(r.Intn(v)), int32(v))
		}
		pattern = pb.MustBuild()
	}
	return pattern, target
}

// TestMatchersAgree is the cross-matcher differential: brute, VF2, VF2+
// and GraphQL must return the same verdict on every pair. The three real
// matchers start from the shared quickReject screen. So the pair families
// aim at its corners next to plain random pairs: empty and single-vertex
// graphs, disconnected patterns and targets, label-disjoint pairs, pairs
// only the edge-label screen rejects, pairs that pass every screen and
// fail in the search, and pairs over a wide alphabet whose labels collide
// in the summaries.
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
		{"wide alphabet", func() (*graph.Graph, *graph.Graph) { return widePair(r) }},
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
// the vertex count, is the judge, over random pairs, over patterns
// extracted from their targets, and over wide-alphabet pairs whose labels
// collide in the summaries' bits and lanes and whose targets saturate a
// lane. The summary screen is checked on its own too: it rejects only
// pairs the signature merges reject, since it folds them. The shape words
// are a step of their own, not part of that fold: the pair families must
// show them rejecting pairs the summary passes.
func TestQuickRejectIsSound(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const perFamily = 10000
	var embeds, rejected, edgeOnly, bySummary, byShapes, pastSummary, saturated int
	for i := 0; i < 3*perFamily; i++ {
		var pattern, target *graph.Graph
		switch i / perFamily {
		case 0:
			target = randomGraph(r, 2+r.Intn(8), 1+r.Intn(3), 0.4)
			pattern = randomGraph(r, 1+r.Intn(4), 1+r.Intn(3), 0.5)
		case 1:
			target = randomGraph(r, 3+r.Intn(10), 1+r.Intn(4), 0.3)
			pattern = randomConnectedSubgraph(r, target, 2+r.Intn(5))
		default:
			pattern, target = widePair(r)
			for _, l := range target.Labels() {
				if target.LabelCount(l) > 15 {
					saturated++
					break
				}
			}
		}
		_, ok := Brute{}.FindEmbedding(pattern, target)
		if ok {
			embeds++
		}
		merges := !target.LabelsDominate(pattern) || !target.EdgesDominate(pattern)
		summary := !target.SummaryDominates(pattern)
		if summary && !merges {
			t.Fatalf("pair %d: the summary rejects a pair the signatures pass\npattern %v %v\ntarget %v %v",
				i, pattern, pattern.Labels(), target, target.Labels())
		}
		if summary {
			bySummary++
		} else if !target.ShapesDominate(pattern) {
			byShapes++
		} else if merges {
			pastSummary++
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
	t.Logf("%d pairs: %d embed, %d rejected by the screen (%d by the summary, %d by the shape words, %d past both, %d by the edge-label screen alone); %d wide targets saturate a lane",
		3*perFamily, embeds, rejected, bySummary, byShapes, pastSummary, edgeOnly, saturated)
	if embeds == 0 || edgeOnly == 0 || bySummary == 0 || byShapes == 0 || pastSummary == 0 || saturated == 0 {
		t.Fatal("the pair families must exercise embeddings, the summary screen, the shape words, collisions past both, saturated lanes and the edge-label screen")
	}
}

// containsCases are one pattern/target pair per way a test can end: an
// embedding exists, the summary screen rejects, the shape words reject a
// pair the summary passes, the label screen rejects a pair both pass, the
// edge-label screen rejects a pair all three pass, or every screen passes
// and the search fails.
func containsCases() map[string][2]*graph.Graph {
	// A ring with no vertex of degree 3: no edge joins two equal labels,
	// eight join 1 and 2, and its two-edge paths are 2–1–2, 1–2–1,
	// 1–2–3, 1–3–2 and 2–1–3.
	target := cycle(1, 2, 1, 2, 3, 1, 2, 1, 3, 2, 1, 2)
	// Label 67 shares label 3's bit and lane, and the target has two 3s.
	collides := graph.NewBuilder()
	collides.AddVertex(2)
	collides.AddVertex(1)
	collides.AddVertex(3)
	collides.AddVertex(67)
	collides.AddEdge(0, 1)
	collides.AddEdge(1, 2)
	return map[string][2]*graph.Graph{
		"hit":              {path(2, 1, 3, 2, 1), target},
		"word-reject":      {path(1, 2, 4), target},
		"shape-reject":     {star(1, 2, 2, 3), target}, // its paths are the target's, its star is not
		"label-reject":     {collides.MustBuild(), target},
		"edge-reject":      {cycle(1, 2, 1, 2, 1, 2, 1, 2, 1, 2), target}, // ten 1–2 edges
		"structure-reject": {cycle(1, 2, 3), target},                      // the ring has no triangle
	}
}

// TestContainsCasesEndWhereNamed checks that each of containsCases is
// decided by the step its name gives, so the allocation pin and the
// benchmark cover every step.
func TestContainsCasesEndWhereNamed(t *testing.T) {
	for name, pt := range containsCases() {
		p, g := pt[0], pt[1]
		steps := []bool{g.SummaryDominates(p), g.ShapesDominate(p), g.LabelsDominate(p), g.EdgesDominate(p), Contains(Brute{}, p, g)}
		var want []bool
		switch name {
		case "word-reject":
			want = []bool{false, false, false, false, false}
		case "shape-reject":
			want = []bool{true, false, true, true, false}
		case "label-reject":
			want = []bool{true, true, false, true, false}
		case "edge-reject":
			want = []bool{true, true, true, false, false}
		case "structure-reject":
			want = []bool{true, true, true, true, false}
		case "hit":
			want = []bool{true, true, true, true, true}
		}
		if !slices.Equal(steps, want) {
			t.Errorf("%s: summary, shapes, labels, edges, embeds = %v, want %v", name, steps, want)
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

// FuzzMatchersAgree decodes a binary frame of two graphs, a pattern of up
// to 7 vertices and a target of up to 10 (Brute is exponential), and
// requires VF2, VF2+ and GraphQL to agree with Brute and to return valid
// embeddings, and every step of the screen to pass a pair Brute embeds.
// Labels are whatever the frame says, so the fuzzer reaches labels that
// collide in the summaries' bits and lanes and in the shape words.
func FuzzMatchersAgree(f *testing.F) {
	seed := func(pattern, target *graph.Graph) {
		data, err := graph.EncodeBinary([]*graph.Graph{pattern, target})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	r := rand.New(rand.NewSource(41))
	seed(graph.NewBuilder().MustBuild(), path(1))
	seed(path(1, 65), path(65, 1, 1))
	seed(union(path(2, 1, 3), path(67)), cycle(1, 2, 1, 3, 2, 3))
	seed(union(path(3, 4), path(4)), cycle(3, 4, 19, 4, 3, 68))
	for i := 0; i < 6; i++ {
		target := randomGraph(r, 4+r.Intn(7), 1+r.Intn(3), 0.4)
		seed(randomConnectedSubgraph(r, target, 2+r.Intn(5)), target)
		seed(relabel(randomGraph(r, 2+r.Intn(3), 2, 0.6), 16*graph.Label(i)), target)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := graph.DecodeBinary(data)
		if err != nil || len(gs) != 2 || gs[0].NumVertices() > 7 || gs[1].NumVertices() > 10 {
			return
		}
		pattern, target := gs[0], gs[1]
		want := Contains(Brute{}, pattern, target)
		if steps := []bool{target.SummaryDominates(pattern), target.ShapesDominate(pattern),
			target.LabelsDominate(pattern), target.EdgesDominate(pattern)}; want && slices.Contains(steps, false) {
			t.Fatalf("a screen step rejects a pair brute embeds: summary, shapes, labels, edges = %v\npattern %v %v\ntarget %v %v",
				steps, pattern, pattern.Labels(), target, target.Labels())
		}
		for _, a := range all() {
			m, got := a.FindEmbedding(pattern, target)
			if got != want {
				t.Fatalf("%s says %v, brute says %v\npattern %v %v\ntarget %v %v",
					a.Name(), got, want, pattern, pattern.Labels(), target, target.Labels())
			}
			if got && !ValidEmbedding(pattern, target, m) {
				t.Fatalf("%s returned an invalid embedding %v", a.Name(), m)
			}
		}
	})
}
