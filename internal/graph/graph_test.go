package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// path builds a labelled path graph l0-l1-...-lk.
func path(labels ...Label) *Graph {
	b := NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		b.AddEdge(int32(i-1), int32(i))
	}
	return b.MustBuild()
}

// cycle builds a labelled cycle graph.
func cycle(labels ...Label) *Graph {
	b := NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	n := len(labels)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder().SetID(7)
	a := b.AddVertex(1)
	c := b.AddVertex(2)
	d := b.AddVertex(3)
	b.AddEdge(a, c)
	b.AddEdge(c, d)
	b.AddEdge(d, c) // duplicate in the other orientation: collapsed
	g := b.MustBuild()

	if g.ID() != 7 {
		t.Errorf("ID = %d, want 7", g.ID())
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (duplicate edge must collapse)", g.NumEdges())
	}
	if !g.HasEdge(a, c) || !g.HasEdge(c, a) {
		t.Error("HasEdge(a,c) must hold in both orientations")
	}
	if g.HasEdge(a, d) {
		t.Error("HasEdge(a,d) must be false")
	}
	if g.Degree(c) != 2 || g.Degree(a) != 1 {
		t.Errorf("degrees = %d,%d, want 2,1", g.Degree(c), g.Degree(a))
	}
	if g.Label(d) != 3 {
		t.Errorf("Label(d) = %d, want 3", g.Label(d))
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder()
	v := b.AddVertex(0)
	b.AddEdge(v, v)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build must reject self loops")
	}
}

func TestBuilderRejectsOutOfRangeEdge(t *testing.T) {
	b := NewBuilder()
	b.AddVertex(0)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build must reject out-of-range endpoints")
	}
	b2 := NewBuilder()
	b2.AddVertex(0)
	b2.AddVertex(1)
	b2.AddEdge(-1, 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build must reject negative endpoints")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().MustBuild()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph must have no vertices or edges")
	}
	if !g.IsConnected() {
		t.Error("empty graph counts as connected")
	}
	if g.AvgDegree() != 0 || g.MaxDegree() != 0 {
		t.Error("empty graph degree stats must be zero")
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddVertex(Label(i))
	}
	b.AddEdge(0, 5)
	b.AddEdge(0, 2)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("Neighbors(0) not strictly sorted: %v", nb)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := cycle(1, 2, 3, 4)
	var got [][2]int32
	g.Edges(func(u, v int32) {
		if u >= v {
			t.Errorf("Edges must report u < v, got (%d,%d)", u, v)
		}
		got = append(got, [2]int32{u, v})
	})
	if len(got) != 4 {
		t.Fatalf("cycle of 4 must have 4 edges, got %d", len(got))
	}
}

// labelHistogram is the map-based reference the label signature replaced.
func labelHistogram(g *Graph) map[Label]int {
	h := make(map[Label]int)
	for _, l := range g.Labels() {
		h[l]++
	}
	return h
}

// edgeHistogram is the map-based reference for the edge signature: g's
// edges counted by their unordered endpoint-label pair.
func edgeHistogram(g *Graph) map[[2]Label]int {
	h := make(map[[2]Label]int)
	g.Edges(func(u, v int32) {
		a, b := g.Label(u), g.Label(v)
		h[[2]Label{min(a, b), max(a, b)}]++
	})
	return h
}

// checkSignature asserts that every signature-, summary-, shape- and
// adjacency-backed accessor of g agrees with a recount from its labels
// and from edges, the edge list g was built from (either orientation,
// repeats allowed).
func checkSignature(t *testing.T, what string, g *Graph, edges [][2]int32) {
	t.Helper()
	h := labelHistogram(g)
	if g.DistinctLabels() != len(h) {
		t.Errorf("%s: DistinctLabels = %d, want %d", what, g.DistinctLabels(), len(h))
	}
	for l, c := range h {
		if g.LabelCount(l) != c {
			t.Errorf("%s: LabelCount(%d) = %d, want %d", what, l, g.LabelCount(l), c)
		}
	}
	if !g.LabelsDominate(g) || !g.EdgesDominate(g) {
		t.Errorf("%s: graph must dominate itself", what)
	}

	n := int32(g.NumVertices())
	set := make(map[[2]int32]bool)
	nbrs := make([][]int32, n)
	pairs := make(map[[2]Label]int)
	for _, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if set[[2]int32{u, v}] {
			continue
		}
		set[[2]int32{u, v}] = true
		nbrs[u] = append(nbrs[u], v)
		nbrs[v] = append(nbrs[v], u)
		a, b := g.Label(u), g.Label(v)
		pairs[[2]Label{min(a, b), max(a, b)}]++
	}
	if g.NumEdges() != len(set) {
		t.Errorf("%s: NumEdges = %d, want %d", what, g.NumEdges(), len(set))
	}
	for v := int32(0); v < n; v++ {
		slices.Sort(nbrs[v])
		if g.Degree(v) != len(nbrs[v]) || !slices.Equal(g.Neighbors(v), nbrs[v]) {
			t.Errorf("%s: vertex %d: degree %d, neighbours %v; want %d, %v",
				what, v, g.Degree(v), g.Neighbors(v), len(nbrs[v]), nbrs[v])
		}
		for w := int32(0); w < n; w++ {
			if g.HasEdge(v, w) != set[[2]int32{min(v, w), max(v, w)}] {
				t.Errorf("%s: HasEdge(%d, %d) = %v", what, v, w, g.HasEdge(v, w))
			}
		}
	}
	// The summary, recounted from the histograms bit by bit and lane by
	// lane.
	want := summary{nv: uint32(n), ne: uint32(len(set))}
	var lanes [16]int
	for l, c := range h {
		want.labels |= 1 << (l % 64)
		lanes[l%16] += c
	}
	for i, c := range lanes {
		want.lanes |= uint64(min(c, 15)) << (4 * i)
	}
	for p := range pairs {
		want.pairs |= pairBit(labelPair(p[0], p[1]))
	}
	if g.sum != want {
		t.Errorf("%s: summary %+v, want %+v", what, g.sum, want)
	}
	// The shape words, recounted over every pair and every triple of
	// distinct neighbours of every vertex.
	var paths, stars uint64
	for v := int32(0); v < n; v++ {
		nb := nbrs[v]
		for i := range nb {
			for j := i + 1; j < len(nb); j++ {
				a, b := g.Label(nb[i]), g.Label(nb[j])
				paths |= shapeBit(pathKey(g.Label(v), min(a, b), max(a, b)))
				for k := j + 1; k < len(nb); k++ {
					ls := []Label{a, b, g.Label(nb[k])}
					slices.Sort(ls)
					stars |= shapeBit(starKey(g.Label(v), ls[0], ls[1], ls[2]))
				}
			}
		}
	}
	if g.paths != paths || g.stars != stars {
		t.Errorf("%s: shape words %016x %016x, want %016x %016x", what, g.paths, g.stars, paths, stars)
	}
	if !g.ShapesDominate(g) {
		t.Errorf("%s: shape words must dominate themselves", what)
	}
	if len(g.esig) != len(pairs) {
		t.Errorf("%s: edge signature has %d label pairs, want %d", what, len(g.esig), len(pairs))
	}
	for i, e := range g.esig {
		if i > 0 && g.esig[i-1].key >= e.key {
			t.Errorf("%s: edge signature not strictly ascending at entry %d", what, i)
		}
		pair := [2]Label{Label(e.key >> 16), Label(e.key)}
		if want := min(pairs[pair], math.MaxUint16); int(e.count) != want {
			t.Errorf("%s: edge signature counts %d edges joining %v, want %d", what, e.count, pair, want)
		}
	}
}

func TestLabelCountAndDistinct(t *testing.T) {
	g := path(1, 2, 1, 1, 3)
	checkSignature(t, "path", g, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if g.LabelCount(1) != 3 || g.LabelCount(2) != 1 || g.LabelCount(9) != 0 {
		t.Errorf("LabelCount = %d, %d, %d; want 3, 1, 0", g.LabelCount(1), g.LabelCount(2), g.LabelCount(9))
	}
	if g.DistinctLabels() != 3 {
		t.Errorf("DistinctLabels = %d, want 3", g.DistinctLabels())
	}
	var empty Graph
	if empty.DistinctLabels() != 0 || empty.LabelCount(1) != 0 || !g.LabelsDominate(&empty) || !g.EdgesDominate(&empty) ||
		!g.ShapesDominate(&empty) || !empty.ShapesDominate(&empty) {
		t.Error("the zero Graph has no labels, edges or shapes and is dominated by anything")
	}
	// The path's centres are its three inner vertices, and no vertex has
	// three neighbours.
	if want := shapeBit(pathKey(2, 1, 1)) | shapeBit(pathKey(1, 1, 2)) | shapeBit(pathKey(1, 1, 3)); g.paths != want || g.stars != 0 {
		t.Errorf("path shape words %016x %016x, want %016x 0", g.paths, g.stars, want)
	}
}

// TestShapeWords pins what the shape words hold and what comparing them
// tells apart: a star's paths and stars follow its leaves' label
// multiset, a leaf label must occur as often as a shape uses it, and a
// centre with more neighbours than fit the stack buffer, all labelled
// apart, fills both words.
func TestShapeWords(t *testing.T) {
	star := func(centre Label, leaves ...Label) *Graph {
		b := NewBuilder()
		c := b.AddVertex(centre)
		for _, l := range leaves {
			b.AddEdge(c, b.AddVertex(l))
		}
		return b.MustBuild()
	}
	g := star(1, 2, 2, 3)
	checkSignature(t, "star", g, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	wantPaths := shapeBit(pathKey(1, 2, 2)) | shapeBit(pathKey(1, 2, 3))
	if g.paths != wantPaths || g.stars != shapeBit(starKey(1, 2, 2, 3)) {
		t.Errorf("star(1; 2, 2, 3) shape words %016x %016x, want %016x %016x", g.paths, g.stars, wantPaths, shapeBit(starKey(1, 2, 2, 3)))
	}
	for _, c := range []struct {
		name string
		q    *Graph
		want bool
	}{
		{"itself", g, true},
		{"a sub-star", star(1, 2, 3), true},
		{"a two-path", path(2, 1, 2), true},
		{"a label used once more", star(1, 2, 2, 2), false},
		{"another centre", star(2, 1, 3), false},
		{"a path through a leaf", path(1, 2, 1), false},
	} {
		if got := g.ShapesDominate(c.q); got != c.want {
			t.Errorf("%s: ShapesDominate = %v, want %v", c.name, got, c.want)
		}
	}

	// Five 3s and three 2s, interleaved: the cut to three copies keeps
	// every multiset, (3, 3, 3) and (2, 2, 2) included.
	repeats := star(1, 3, 2, 3, 2, 3, 2, 3, 3)
	checkSignature(t, "star with repeats", repeats, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}})

	var leaves []Label
	var edges [][2]int32
	for l := Label(0); l < 70; l++ {
		leaves = append(leaves, 100+l)
		edges = append(edges, [2]int32{0, int32(l) + 1})
	}
	wide := star(7, leaves...)
	checkSignature(t, "wide star", wide, edges)
	if wide.paths != math.MaxUint64 || wide.stars != math.MaxUint64 {
		t.Errorf("a 70-leaf star has shape words %016x %016x, want both full", wide.paths, wide.stars)
	}
}

// TestLanesDominateMatchesNibbles compares the SWAR lane compare with a
// nibble-by-nibble one, on random words and on words whose lanes differ
// by at most one, where a borrow between lanes would show.
func TestLanesDominateMatchesNibbles(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	slow := func(g, q uint64) bool {
		for i := 0; i < 64; i += 4 {
			if g>>i&15 < q>>i&15 {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200000; i++ {
		g, q := r.Uint64(), r.Uint64()
		if i%2 == 1 {
			q = g
			for k := 0; k < 16; k++ {
				switch lane := q >> (4 * k) & 15; r.Intn(3) {
				case 0:
					if lane < 15 {
						q += 1 << (4 * k)
					}
				case 1:
					if lane > 0 {
						q -= 1 << (4 * k)
					}
				}
			}
		}
		if got, want := lanesDominate(g, q), slow(g, q); got != want {
			t.Fatalf("lanesDominate(%016x, %016x) = %v, want %v", g, q, got, want)
		}
	}
}

// TestSummaryDominates walks the summary's parts: each one alone can
// reject, and labels that share a bit and a lane, or saturate a lane,
// pass a pair the label signature rejects.
func TestSummaryDominates(t *testing.T) {
	repeat := func(l Label, n int) []Label { return slices.Repeat([]Label{l}, n) }
	g := path(append(repeat(1, 20), 2, 3)...) // lane 1 saturates
	for _, c := range []struct {
		name string
		q    *Graph
		want bool
	}{
		{"itself", g, true},
		{"saturated lane", path(repeat(1, 21)...), true},
		{"shared bit and lane", path(65, 1, 2), false}, // the edge 65–1 has a pair bit of its own
		{"shared bit and lane, no edges", &Graph{sum: summarize(1, 0, labelSignature([]Label{65}), nil)}, true},
		{"more vertices", path(repeat(1, 23)...), false},
		{"missing label bit", path(4), false},
		{"lane short", path(3, 19), false}, // lane 3 holds one vertex of g
		{"missing pair bit", path(1, 3), false},
	} {
		if got := g.SummaryDominates(c.q); got != c.want {
			t.Errorf("%s: SummaryDominates = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPropertyLabelsDominateMatchesHistograms compares the signature merge
// with the histogram definition on random pairs, including label-disjoint
// ones.
func TestPropertyLabelsDominateMatchesHistograms(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		g := randomGraph(r, r.Intn(12), 1+r.Intn(4), 0.3)
		q := randomGraph(r, r.Intn(8), 1+r.Intn(5), 0.3)
		want := true
		gh := labelHistogram(g)
		for l, c := range labelHistogram(q) {
			if gh[l] < c {
				want = false
			}
		}
		if got := g.LabelsDominate(q); got != want {
			t.Fatalf("LabelsDominate(%v, %v) = %v, want %v", g.Labels(), q.Labels(), got, want)
		}
	}
}

// mirror returns g with its vertex order reversed, so that each edge's
// lower endpoint carries the label its upper endpoint carried. Each edge
// is kept with probability keep and each non-edge added with probability
// add.
func mirror(r *rand.Rand, g *Graph, keep, add float64) *Graph {
	n := int32(g.NumVertices())
	b := NewBuilder()
	for v := n - 1; v >= 0; v-- {
		b.AddVertex(g.Label(v))
	}
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := add
			if g.HasEdge(u, v) {
				p = keep
			}
			if r.Float64() < p {
				b.AddEdge(n-1-v, n-1-u)
			}
		}
	}
	return b.MustBuild()
}

// TestPropertyEdgesDominateMatchesHistograms compares the edge-signature
// merge with the histogram definition on random pairs, label-disjoint
// pairs, and pairs whose edges join the same labels from the other side.
func TestPropertyEdgesDominateMatchesHistograms(t *testing.T) {
	if !path(1, 2).EdgesDominate(path(2, 1)) || !path(2, 1).EdgesDominate(path(1, 2)) {
		t.Fatal("an edge's label pair must not depend on its orientation")
	}
	if path(1, 2, 1).EdgesDominate(path(1, 1)) || !path(1, 2, 1).EdgesDominate(path(2, 1)) {
		t.Fatal("EdgesDominate must count label pairs, not labels")
	}
	r := rand.New(rand.NewSource(13))
	var verdicts [2]int
	for i := 0; i < 2000; i++ {
		g := randomGraph(r, r.Intn(12), 1+r.Intn(4), 0.3)
		var q *Graph
		switch i % 3 {
		case 0:
			q = randomGraph(r, r.Intn(8), 1+r.Intn(4), 0.4)
		case 1: // label-disjoint: no label of q occurs in g
			src := randomGraph(r, 2+r.Intn(6), 1+r.Intn(4), 0.4)
			b := NewBuilder()
			for _, l := range src.Labels() {
				b.AddVertex(l + 50)
			}
			src.Edges(b.AddEdge)
			q = b.MustBuild()
		case 2:
			q = mirror(r, g, 0.8, 0.05)
		}
		want := true
		gh := edgeHistogram(g)
		for p, c := range edgeHistogram(q) {
			if gh[p] < c {
				want = false
			}
		}
		if got := g.EdgesDominate(q); got != want {
			t.Fatalf("EdgesDominate(%v, %v) = %v, want %v", edgeHistogram(g), edgeHistogram(q), got, want)
		}
		if want {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (no, yes) = %v: the pairs must exercise both answers", verdicts)
	}
}

func TestLabelScreensDoNotAllocate(t *testing.T) {
	big, small, other := path(1, 1, 2, 3, 4, 5), path(1, 2, 5), path(1, 7)
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		if big.LabelsDominate(small) {
			sink++
		}
		if big.LabelsDominate(other) {
			sink++
		}
		if big.EdgesDominate(small) {
			sink++
		}
		sink += big.LabelCount(3) + big.DistinctLabels()
	}); n != 0 {
		t.Errorf("label screens allocate %v times per run, want 0", n)
	}
}

func TestLabelsDominate(t *testing.T) {
	big := path(1, 1, 2, 3)
	small := path(1, 2)
	if !big.LabelsDominate(small) {
		t.Error("big must dominate small")
	}
	if small.LabelsDominate(big) {
		t.Error("small must not dominate big")
	}
	needsTwo := path(2, 2)
	if big.LabelsDominate(needsTwo) {
		t.Error("big has only one 2-label, must not dominate (2,2)")
	}
	// Equal multisets dominate both ways.
	p1, p2 := path(1, 2, 3), path(3, 2, 1)
	if !p1.LabelsDominate(p2) || !p2.LabelsDominate(p1) {
		t.Error("equal label multisets must dominate each other")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 7; i++ {
		b.AddVertex(0)
	}
	// Components: {0,1,2}, {3,4}, {5}, {6}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	comps := g.ConnectedComponents()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4: %v", len(comps), comps)
	}
	want := [][]int32{{0, 1, 2}, {3, 4}, {5}, {6}}
	for i := range want {
		if len(comps[i]) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
		}
		for j := range want[i] {
			if comps[i][j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, comps[i], want[i])
			}
		}
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if !path(1, 2, 3).IsConnected() {
		t.Error("path reported disconnected")
	}
}

func TestBFSOrder(t *testing.T) {
	g := path(0, 0, 0, 0)
	order := g.BFSOrder(0)
	if len(order) != 4 {
		t.Fatalf("BFS from 0 must reach all 4 vertices, got %v", order)
	}
	if order[0] != 0 {
		t.Errorf("BFS order must start at the start vertex, got %v", order)
	}
	// On a path, BFS from an endpoint visits vertices in index order.
	for i, v := range order {
		if v != int32(i) {
			t.Errorf("BFS on path from endpoint: order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(1, 2, 3, 4, 5)
	sub, mapping, err := g.InducedSubgraph([]int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced {0,1,2} of C5: v=%d e=%d, want v=3 e=2", sub.NumVertices(), sub.NumEdges())
	}
	for i, orig := range mapping {
		if sub.Label(int32(i)) != g.Label(orig) {
			t.Errorf("label mismatch at new vertex %d", i)
		}
	}
	// Non-adjacent selection yields no edges.
	sub2, _, err := g.InducedSubgraph([]int32{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.NumEdges() != 0 {
		t.Errorf("induced {0,2} of C5 must have no edges, got %d", sub2.NumEdges())
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := path(1, 2, 3)
	if _, _, err := g.InducedSubgraph([]int32{0, 9}); err == nil {
		t.Error("out-of-range vertex must be rejected")
	}
	if _, _, err := g.InducedSubgraph([]int32{0, 0}); err == nil {
		t.Error("duplicate vertex must be rejected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := path(1, 2, 3)
	c := g.Clone()
	if !g.StructurallyEqual(c) {
		t.Fatal("clone must equal original")
	}
	c.SetID(99)
	if g.ID() == 99 {
		t.Error("mutating clone id must not affect original")
	}
}

func TestStructurallyEqual(t *testing.T) {
	if !path(1, 2).StructurallyEqual(path(1, 2)) {
		t.Error("identical paths must be equal")
	}
	if path(1, 2).StructurallyEqual(path(2, 1)) {
		t.Error("different label order must not be structurally equal")
	}
	if path(1, 2, 3).StructurallyEqual(cycle(1, 2, 3)) {
		t.Error("path vs cycle must differ")
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(r *rand.Rand, n, labels int, p float64) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(Label(r.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.MustBuild()
}

func TestPropertyDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(20), 4, 0.3)
		sum := 0
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyComponentsPartitionVertices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 1+r.Intn(25), 3, 0.15)
		seen := make(map[int32]bool)
		total := 0
		for _, comp := range g.ConnectedComponents() {
			for _, v := range comp {
				if seen[v] {
					return false // vertex in two components
				}
				seen[v] = true
				total++
			}
		}
		return total == g.NumVertices()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHasEdgeMatchesNeighbors(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(15), 3, 0.4)
		for u := int32(0); int(u) < g.NumVertices(); u++ {
			inNb := make(map[int32]bool)
			for _, w := range g.Neighbors(u) {
				inNb[w] = true
			}
			for v := int32(0); int(v) < g.NumVertices(); v++ {
				if g.HasEdge(u, v) != inNb[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLabelsDominate(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 40, 8, 0.1)
	sub, _, err := g.InducedSubgraph([]int32{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		b.Fatal(err)
	}
	pairs := map[string]*Graph{"dominated": sub, "rejected": path(1, 2, 200)}
	for name, q := range pairs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				g.LabelsDominate(q)
			}
		})
	}
}
