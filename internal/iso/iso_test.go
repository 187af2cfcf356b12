package iso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphcache/internal/graph"
)

// all returns every real matcher (Brute is the oracle, tested implicitly).
func all() []Algorithm {
	return []Algorithm{VF2{}, VF2Plus{}, GraphQL{}}
}

func path(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		b.AddEdge(int32(i-1), int32(i))
	}
	return b.MustBuild()
}

func cycle(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	n := len(labels)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

// clique builds a complete graph on the given labels.
func clique(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.MustBuild()
}

// star builds a star with the given centre and leaf labels.
func star(center graph.Label, leaves ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	c := b.AddVertex(center)
	for _, l := range leaves {
		v := b.AddVertex(l)
		b.AddEdge(c, v)
	}
	return b.MustBuild()
}

func TestKnownCases(t *testing.T) {
	uniform := func(n int) []graph.Label { return make([]graph.Label, n) }
	cases := []struct {
		name            string
		pattern, target *graph.Graph
		want            bool
	}{
		{"single vertex in path", path(1), path(2, 1, 3), true},
		{"single vertex label missing", path(7), path(2, 1, 3), false},
		{"edge in triangle", path(0, 0), cycle(uniform(3)...), true},
		{"path3 in C4", path(0, 0, 0), cycle(uniform(4)...), true},
		{"C3 not in C4 (no chord)", cycle(uniform(3)...), cycle(uniform(4)...), false},
		{"C4 in K4", cycle(uniform(4)...), clique(uniform(4)...), true},
		{"C3 in K4", cycle(uniform(3)...), clique(uniform(4)...), true},
		{"K4 not in C4", clique(uniform(4)...), cycle(uniform(4)...), false},
		{"labelled path in labelled cycle", path(1, 2, 3), cycle(3, 2, 1, 4), true},
		{"labelled path reversed in cycle", path(3, 2, 1), cycle(1, 2, 3, 4), true},
		{"label order matters", path(1, 3, 2), cycle(1, 2, 3, 4), false},
		{"pattern bigger than target", path(0, 0, 0, 0), path(0, 0), false},
		{"too many label copies", path(5, 5), star(5, 1, 2), false},
		{"star3 in star5", star(9, 1, 1, 1), star(9, 1, 1, 1, 1, 1), true},
		{"star needs degree", star(9, 1, 1, 1), path(1, 9, 1), false},
		{"exact same graph", cycle(1, 2, 3, 4, 5), cycle(1, 2, 3, 4, 5), true},
		{"non-induced: P3 in C3", path(0, 0, 0), cycle(uniform(3)...), true},
	}
	for _, tc := range cases {
		for _, a := range append(all(), Brute{}) {
			m, got := a.FindEmbedding(tc.pattern, tc.target)
			if got != tc.want {
				t.Errorf("%s: %s = %v, want %v", a.Name(), tc.name, got, tc.want)
				continue
			}
			if got && !ValidEmbedding(tc.pattern, tc.target, m) {
				t.Errorf("%s: %s returned invalid embedding %v", a.Name(), tc.name, m)
			}
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	empty := graph.NewBuilder().MustBuild()
	target := path(1, 2)
	for _, a := range all() {
		m, ok := a.FindEmbedding(empty, target)
		if !ok || len(m) != 0 {
			t.Errorf("%s: empty pattern must embed trivially", a.Name())
		}
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Two disjoint edges as pattern; target is P4 (has two disjoint edges).
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex(0)
	}
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	pat := b.MustBuild()
	target := path(0, 0, 0, 0)
	for _, a := range all() {
		m, ok := a.FindEmbedding(pat, target)
		if !ok {
			t.Errorf("%s: disconnected pattern must embed in P4", a.Name())
			continue
		}
		if !ValidEmbedding(pat, target, m) {
			t.Errorf("%s: invalid embedding for disconnected pattern", a.Name())
		}
	}
	// But not in a triangle (only 3 vertices).
	tri := cycle(0, 0, 0)
	for _, a := range all() {
		if _, ok := a.FindEmbedding(pat, tri); ok {
			t.Errorf("%s: 4-vertex pattern cannot embed in triangle", a.Name())
		}
	}
}

func TestIsomorphic(t *testing.T) {
	for _, a := range all() {
		if !Isomorphic(a, cycle(1, 2, 3, 4), cycle(2, 3, 4, 1)) {
			t.Errorf("%s: rotated cycles must be isomorphic", a.Name())
		}
		if Isomorphic(a, path(1, 2, 3), cycle(1, 2, 3)) {
			t.Errorf("%s: path vs cycle must not be isomorphic", a.Name())
		}
		if Isomorphic(a, path(1, 2), path(1, 2, 2)) {
			t.Errorf("%s: different sizes must not be isomorphic", a.Name())
		}
	}
}

func TestValidEmbeddingRejects(t *testing.T) {
	p := path(1, 2)
	tg := path(1, 2, 1)
	if ValidEmbedding(p, tg, []int32{0}) {
		t.Error("wrong length must be rejected")
	}
	if ValidEmbedding(p, tg, []int32{0, 0}) {
		t.Error("non-injective must be rejected")
	}
	if ValidEmbedding(p, tg, []int32{1, 0}) {
		t.Error("label mismatch must be rejected")
	}
	if ValidEmbedding(p, tg, []int32{0, 5}) {
		t.Error("out of range must be rejected")
	}
	if ValidEmbedding(p, tg, []int32{2, 1}) {
		// vertices 2 (label 1) and 1 (label 2): edge 2-1 exists -> valid!
		// Use a non-edge instead: 0 (label 1) and ... no other label-2.
		// This mapping is actually valid; assert that.
	} else {
		t.Error("valid mapping 2,1 rejected")
	}
	// Edge violation: pattern edge mapped to non-edge.
	disc := graph.NewBuilder()
	disc.AddVertex(1)
	disc.AddVertex(2)
	disc.AddVertex(1)
	dt := disc.MustBuild() // no edges
	if ValidEmbedding(p, dt, []int32{0, 1}) {
		t.Error("edge-violating mapping must be rejected")
	}
}

func TestProfileContains(t *testing.T) {
	cases := []struct {
		super, sub []graph.Label
		want       bool
	}{
		{[]graph.Label{1, 2, 3}, []graph.Label{2}, true},
		{[]graph.Label{1, 2, 3}, []graph.Label{1, 3}, true},
		{[]graph.Label{1, 2, 3}, []graph.Label{}, true},
		{[]graph.Label{1, 2, 3}, []graph.Label{4}, false},
		{[]graph.Label{1, 1, 2}, []graph.Label{1, 1}, true},
		{[]graph.Label{1, 2}, []graph.Label{1, 1}, false},
		{[]graph.Label{}, []graph.Label{1}, false},
		{[]graph.Label{1, 1, 1}, []graph.Label{1, 1, 1}, true},
	}
	for _, tc := range cases {
		if got := profileContains(tc.super, tc.sub); got != tc.want {
			t.Errorf("profileContains(%v, %v) = %v, want %v", tc.super, tc.sub, got, tc.want)
		}
	}
}

func randomGraph(r *rand.Rand, n, labels int, p float64) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
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

// randomConnectedSubgraph extracts a connected non-induced subgraph of g
// with up to maxV vertices via a randomised BFS, relabelling vertices.
func randomConnectedSubgraph(r *rand.Rand, g *graph.Graph, maxV int) *graph.Graph {
	if g.NumVertices() == 0 {
		return graph.NewBuilder().MustBuild()
	}
	start := int32(r.Intn(g.NumVertices()))
	order := g.BFSOrder(start)
	if len(order) > maxV {
		order = order[:maxV]
	}
	inSet := make(map[int32]int32, len(order))
	b := graph.NewBuilder()
	for i, v := range order {
		inSet[v] = int32(i)
		b.AddVertex(g.Label(v))
	}
	for _, v := range order {
		for _, w := range g.Neighbors(v) {
			nw, ok := inSet[w]
			if ok && inSet[v] < nw && r.Float64() < 0.8 { // drop some edges: non-induced
				b.AddEdge(inSet[v], nw)
			}
		}
	}
	return b.MustBuild()
}

func TestPropertyAgreesWithBrute(t *testing.T) {
	oracle := Brute{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		target := randomGraph(r, 4+r.Intn(8), 1+r.Intn(3), 0.35)
		pattern := randomGraph(r, 2+r.Intn(4), 1+r.Intn(3), 0.5)
		_, want := oracle.FindEmbedding(pattern, target)
		for _, a := range all() {
			m, got := a.FindEmbedding(pattern, target)
			if got != want {
				t.Logf("seed=%d algo=%s got=%v want=%v", seed, a.Name(), got, want)
				return false
			}
			if got && !ValidEmbedding(pattern, target, m) {
				t.Logf("seed=%d algo=%s invalid embedding", seed, a.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExtractedSubgraphAlwaysFound(t *testing.T) {
	// A subgraph extracted from g must embed in g — guaranteed positives.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6+r.Intn(15), 1+r.Intn(4), 0.3)
		pat := randomConnectedSubgraph(r, g, 2+r.Intn(5))
		for _, a := range all() {
			m, ok := a.FindEmbedding(pat, g)
			if !ok {
				t.Logf("seed=%d algo=%s missed guaranteed embedding", seed, a.Name())
				return false
			}
			if !ValidEmbedding(pat, g, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVF2PlusOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomGraph(r, 2+r.Intn(10), 3, 0.4)
		tgt := randomGraph(r, 5+r.Intn(10), 3, 0.4)
		order := make([]int32, p.NumVertices())
		vf2plusOrder(p, tgt, order)
		seen := make(map[int32]bool)
		for _, u := range order {
			if seen[u] {
				return false
			}
			seen[u] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVF2PlusOrderKeepsConnectivity(t *testing.T) {
	// On a connected pattern, every vertex after the first must neighbour
	// an earlier vertex in the order.
	p := path(1, 2, 3, 4, 5)
	tgt := cycle(1, 2, 3, 4, 5, 1, 2)
	order := make([]int32, p.NumVertices())
	vf2plusOrder(p, tgt, order)
	placed := map[int32]bool{order[0]: true}
	for _, u := range order[1:] {
		connected := false
		for _, w := range p.Neighbors(u) {
			if placed[w] {
				connected = true
			}
		}
		if !connected {
			t.Fatalf("order %v breaks connectivity at %d", order, u)
		}
		placed[u] = true
	}
}

func TestGraphQLRefineIterationsConfigurable(t *testing.T) {
	// More refinement never changes the answer, only the work.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		target := randomGraph(r, 10, 2, 0.3)
		pattern := randomGraph(r, 4, 2, 0.5)
		_, a := GraphQL{RefineIterations: 1}.FindEmbedding(pattern, target)
		_, b := GraphQL{RefineIterations: 5}.FindEmbedding(pattern, target)
		if a != b {
			t.Fatalf("refinement depth changed the decision: %v vs %v", a, b)
		}
	}
}
