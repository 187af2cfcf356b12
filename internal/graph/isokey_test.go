package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/workload"
)

// permuted returns g with vertex v renumbered to perm[v]: an isomorphic
// copy whose CSR adjacency and label order differ.
func permuted(g *graph.Graph, perm []int32) *graph.Graph {
	labels := make([]graph.Label, g.NumVertices())
	for v := range labels {
		labels[perm[v]] = g.Label(int32(v))
	}
	b := graph.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	g.Edges(func(u, v int32) { b.AddEdge(perm[v], perm[u]) })
	return b.MustBuild()
}

// randomLabelled returns a random graph on n vertices with about m edges
// and labels drawn from [base, base+labels).
func randomLabelled(r *rand.Rand, n, m, labels, base int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(base + r.Intn(labels)))
	}
	for k := 0; k < m && n > 1; k++ {
		if u, v := int32(r.Intn(n)), int32(r.Intn(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// TestIsoKeyPermutationInvariant: the key of a graph equals the key of
// every vertex permutation of it — 1,000 random permutations over
// internal/gen molecules and random graphs, some above the 64 vertices
// whose scratch fits on the stack and some with labels of 256 and more.
func TestIsoKeyPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	var gs []*graph.Graph
	gs = append(gs, gen.DefaultAIDS().Scaled(0.001, 1).Generate(62).Graphs()...)
	gs = append(gs, gen.DefaultPDBS().Scaled(0.01, 0.2).Generate(63).Graphs()...)
	for i := 0; i < 30; i++ {
		n := 1 + r.Intn(150)
		gs = append(gs, randomLabelled(r, n, r.Intn(3*n), 1+r.Intn(8), []int{0, 250, 4000, 65000}[i%4]))
	}
	big, wide := 0, 0
	for _, g := range gs {
		if g.NumVertices() > 64 {
			big++
		}
		if slices.Max(append([]graph.Label{0}, g.Labels()...)) >= 256 {
			wide++
		}
	}
	if big == 0 || wide == 0 {
		t.Fatalf("the sample has %d graphs above 64 vertices and %d with labels ≥ 256; want both", big, wide)
	}
	for k := 0; k < 1000; k++ {
		g := gs[k%len(gs)]
		perm := make([]int32, g.NumVertices())
		for i, p := range r.Perm(len(perm)) {
			perm[i] = int32(p)
		}
		if h := permuted(g, perm); g.IsoKey() != h.IsoKey() {
			t.Fatalf("%v (%d edges): key %x, permuted copy %x", g, g.NumEdges(), g.IsoKey(), h.IsoKey())
		}
	}
	t.Logf("1000 permutations of %d graphs: %d above 64 vertices, %d with labels ≥ 256", len(gs), big, wide)
}

// TestIsoKeySeparates pins what the key must tell apart: labels, sizes,
// degrees, and equal colours that occur twice — an XOR aggregate would
// cancel the pair, and every graph of two like-labelled isolated vertices
// would share one key.
func TestIsoKeySeparates(t *testing.T) {
	vertices := func(labels ...graph.Label) *graph.Graph {
		b := graph.NewBuilder()
		for _, l := range labels {
			b.AddVertex(l)
		}
		return b.MustBuild()
	}
	star := graph.NewBuilder()
	for i := int32(0); i < 4; i++ {
		star.AddVertex(1)
		if i > 0 {
			star.AddEdge(0, i)
		}
	}
	pairs := []struct {
		what string
		a, b *graph.Graph
	}{
		{"empty vs one vertex", vertices(), vertices(0)},
		{"labels", vertices(1), vertices(2)},
		{"two 5s vs two 7s", vertices(5, 5), vertices(7, 7)},
		{"one vs two isolated vertices", vertices(5), vertices(5, 5)},
		{"star vs path", star.MustBuild(), path(1, 1, 1, 1)},
		{"label above 255", vertices(1), vertices(257)},
	}
	for _, p := range pairs {
		if p.a.IsoKey() == p.b.IsoKey() {
			t.Errorf("%s: both keyed %x", p.what, p.a.IsoKey())
		}
	}
}

// path builds a labelled path graph.
func path(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for i, l := range labels {
		b.AddVertex(l)
		if i > 0 {
			b.AddEdge(int32(i-1), int32(i))
		}
	}
	return b.MustBuild()
}

// TestIsoKeyGolden pins the key of a few fixed graphs. The key is computed
// independently by the router (its consistent-hash affinity) and by every
// backend (its exact-lookup key), so a change of the function moves every
// query's ring home; it must be deliberate.
func TestIsoKeyGolden(t *testing.T) {
	tri := graph.NewBuilder()
	for _, l := range []graph.Label{6, 6, 8} {
		tri.AddVertex(l)
	}
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	// 80 vertices: the scratch leaves the stack.
	rb := graph.NewBuilder()
	for i := 0; i < 80; i++ {
		rb.AddVertex(graph.Label(i % 7))
		rb.AddEdge(int32(i), int32((i+1)%80))
	}
	ring := rb.MustBuild()
	for _, c := range []struct {
		g    *graph.Graph
		want uint64
	}{
		{graph.NewBuilder().MustBuild(), 0},
		{tri.MustBuild(), 0xf64c94d900471667},
		{path(300, 2, 2, 4464), 0x9ea90b3867cabafa},
		{ring, 0x42a11935fd8f453c},
	} {
		if got := c.g.IsoKey(); got != c.want {
			t.Errorf("%v: key %#x, want %#x", c.g, got, c.want)
		}
	}
}

// TestIsoKeyDiscrimination reports how often the key fails to tell apart
// what an isomorphism test does: over 2,000 UU queries of 4–20 edges on an
// AIDS-like dataset, the pairs of distinct queries with equal key and
// equal size, and how many of them are not isomorphic. Each such pair
// costs the exact lookup one refuted confirmation.
func TestIsoKeyDiscrimination(t *testing.T) {
	ds := gen.DefaultAIDS().Scaled(0.02, 1).Generate(64)
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12, 16, 20}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	type sizeKey struct {
		key  uint64
		v, e int
	}
	byKey := map[sizeKey][]*graph.Graph{}
	for _, q := range workload.TypeA(ds, cfg, 65) {
		g := q.Graph
		k := sizeKey{g.IsoKey(), g.NumVertices(), g.NumEdges()}
		byKey[k] = append(byKey[k], g)
	}
	pairs, nonIso := 0, 0
	for _, gs := range byKey {
		for i := range gs {
			for j := i + 1; j < len(gs); j++ {
				pairs++
				if !iso.Isomorphic(iso.VF2{}, gs[i], gs[j]) {
					nonIso++
					t.Logf("not isomorphic under key %x: %v and %v", gs[i].IsoKey(), gs[i], gs[j])
				}
			}
		}
	}
	t.Logf("%d pairs of queries with equal key and size, %d of them not isomorphic", pairs, nonIso)
	if pairs == 0 {
		t.Fatal("the workload repeats no query; the report measures nothing")
	}
	if nonIso > 0 {
		t.Errorf("%d of %d equal-key pairs are not isomorphic, want 0 on this workload", nonIso, pairs)
	}
}

// FuzzIsoKeyPermutation decodes a binary graph frame and checks that every
// decoded graph keeps its key under a vertex permutation drawn from the
// fuzz bytes.
func FuzzIsoKeyPermutation(f *testing.F) {
	// One small graph per seed frame: the fuzzer minimises every input it
	// finds interesting, and a large frame makes that take the whole run.
	r := rand.New(rand.NewSource(66))
	for i, g := range []*graph.Graph{
		path(1, 2, 1),
		randomLabelled(r, 8, 10, 2, 0),
		randomLabelled(r, 12, 14, 3, 300),
		path(make([]graph.Label, 66)...), // past the 64 vertices kept on the stack
	} {
		if data, err := graph.EncodeBinary([]*graph.Graph{g}); err == nil {
			f.Add(data, int64(i))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		gs, err := graph.DecodeBinary(data)
		if err != nil {
			return
		}
		pr := rand.New(rand.NewSource(seed))
		for _, g := range gs {
			perm := make([]int32, g.NumVertices())
			for i, p := range pr.Perm(len(perm)) {
				perm[i] = int32(p)
			}
			if h := permuted(g, perm); g.IsoKey() != h.IsoKey() {
				t.Fatalf("%v: key %x, permuted copy %x", g, g.IsoKey(), h.IsoKey())
			}
		}
	})
}

func BenchmarkIsoKey(b *testing.B) {
	ds := gen.DefaultAIDS().Scaled(0.02, 1).Generate(64)
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12, 16, 20}, 200)
	if err != nil {
		b.Fatal(err)
	}
	qs := workload.TypeA(ds, cfg, 65)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = qs[i%len(qs)].Graph.IsoKey()
	}
}

var keySink uint64
