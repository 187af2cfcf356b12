package graphcache_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphcache"
)

// smallAIDS returns a laptop-scale molecule dataset shared by the public
// API tests.
func smallAIDS(tb testing.TB) *graphcache.Dataset {
	tb.Helper()
	cfg := graphcache.DefaultAIDS().Scaled(0.004, 1) // 160 graphs
	return graphcache.AIDSLike(cfg, 42)
}

func typeAWorkload(tb testing.TB, ds *graphcache.Dataset, cat string, n int) []graphcache.Query {
	tb.Helper()
	cfg, err := graphcache.TypeACategory(cat, 1.4, []int{4, 8, 12}, n)
	if err != nil {
		tb.Fatalf("TypeACategory(%q): %v", cat, err)
	}
	return graphcache.TypeA(ds, cfg, 7)
}

// TestPublicAPIQuickstart is the README quickstart, verified.
func TestPublicAPIQuickstart(t *testing.T) {
	ds := smallAIDS(t)
	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})
	gc := graphcache.New(m, graphcache.Options{CacheSize: 50, WindowSize: 10})

	qs := typeAWorkload(t, ds, "ZZ", 120)
	answered := 0
	for _, q := range qs {
		res := gc.Query(q.Graph)
		if len(res.Answer) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("no query had an answer; workload generator should extract from dataset graphs")
	}
	tot := gc.Totals()
	if tot.Queries != int64(len(qs)) {
		t.Fatalf("Totals.Queries = %d, want %d", tot.Queries, len(qs))
	}
	if tot.ExactHits == 0 {
		t.Error("a Zipf-repeating workload should produce exact cache hits")
	}
}

// TestCacheMatchesBaseline checks soundness through the public API: for
// every bundled method, GraphCache returns exactly the baseline answer.
func TestCacheMatchesBaseline(t *testing.T) {
	ds := smallAIDS(t)
	methods := map[string]graphcache.Method{
		"ggsx":    graphcache.NewGGSX(ds, graphcache.GGSXOptions{}),
		"grapes1": graphcache.NewGrapes(ds, graphcache.GrapesOptions{}),
		"grapes6": graphcache.NewGrapes(ds, graphcache.GrapesOptions{Threads: 6}),
		"ctindex": graphcache.NewCTIndex(ds, graphcache.CTIndexOptions{}),
		"vf2":     graphcache.NewVF2(ds),
		"vf2plus": graphcache.NewVF2Plus(ds),
		"graphql": graphcache.NewGraphQL(ds),
	}
	qs := typeAWorkload(t, ds, "ZU", 60)
	for name, m := range methods {
		t.Run(name, func(t *testing.T) {
			gc := graphcache.New(m, graphcache.Options{CacheSize: 20, WindowSize: 5})
			for i, q := range qs {
				got := gc.Query(q.Graph).Answer
				want := graphcache.Answer(m, q.Graph)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: GC answer %v != baseline %v", i, got, want)
				}
			}
		})
	}
}

// TestSupergraphQueries runs the supergraph-mode cache end to end: answers
// are dataset graphs contained in the query.
func TestSupergraphQueries(t *testing.T) {
	// Build a dataset of fragments extracted from a pool of molecules,
	// then use the molecules themselves as supergraph queries — each is
	// guaranteed to contain the fragments cut out of it.
	molecules := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.001, 1), 3) // 40 graphs
	fcfg, err := graphcache.TypeACategory("UU", 1.4, []int{4, 6}, 60)
	if err != nil {
		t.Fatal(err)
	}
	fragments := graphcache.TypeA(molecules, fcfg, 5)
	fgs := make([]*graphcache.Graph, len(fragments))
	for i, f := range fragments {
		fgs[i] = f.Graph
	}
	ds := graphcache.NewDataset(fgs)

	m := graphcache.NewSupergraphSI(ds)
	if m.Mode() != graphcache.ModeSupergraph {
		t.Fatalf("Mode = %v, want ModeSupergraph", m.Mode())
	}
	gc := graphcache.New(m, graphcache.Options{CacheSize: 16, WindowSize: 4})

	queries := molecules.Graphs()
	nonEmpty := 0
	for _, q := range queries {
		got := gc.Query(q).Answer
		want := graphcache.Answer(m, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("supergraph answer mismatch: %v != %v", got, want)
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("no supergraph query contained any dataset fragment; generator scales are off")
	}
}

// TestSnapshotThroughFacade exercises the persistence lifecycle on the
// public API: warm a cache, snapshot it, restore into a fresh cache, and
// confirm the restored cache hits immediately.
func TestSnapshotThroughFacade(t *testing.T) {
	ds := smallAIDS(t)
	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})
	opts := graphcache.Options{CacheSize: 30, WindowSize: 10}

	gc := graphcache.New(m, opts)
	qs := typeAWorkload(t, ds, "ZZ", 100)
	for _, q := range qs {
		gc.Query(q.Graph)
	}
	gc.Flush()

	var buf bytes.Buffer
	if err := gc.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	warm := graphcache.New(m, opts)
	if err := warm.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if len(warm.CachedSerials()) == 0 {
		t.Fatal("restore produced an empty cache")
	}
	for i, q := range qs {
		got := warm.Query(q.Graph).Answer
		want := graphcache.Answer(m, q.Graph)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after restore: %v != %v", i, got, want)
		}
	}
	if warm.Totals().ExactHits == 0 {
		t.Error("warm cache produced no exact hits on the workload that filled it")
	}
}

// TestContainsAndIsomorphic exercises the bare matchers on hand-built
// graphs.
func TestContainsAndIsomorphic(t *testing.T) {
	tri := buildCycle(t, 3, 1)
	sq := buildCycle(t, 4, 1)
	path := buildPath(t, 3, 1)

	if graphcache.Contains(tri, sq) {
		t.Error("triangle should not embed in square")
	}
	if !graphcache.Contains(path, sq) {
		t.Error("3-path should embed in square")
	}
	if !graphcache.Isomorphic(tri, buildCycle(t, 3, 1)) {
		t.Error("two triangles with equal labels should be isomorphic")
	}
	if graphcache.Isomorphic(tri, sq) {
		t.Error("triangle and square are not isomorphic")
	}
}

// TestGraphIORoundtrip checks ParseGraphs/WriteGraphs through the facade.
func TestGraphIORoundtrip(t *testing.T) {
	ds := smallAIDS(t)
	var buf bytes.Buffer
	if err := graphcache.WriteGraphs(&buf, ds.Graphs()[:10]); err != nil {
		t.Fatal(err)
	}
	back, err := graphcache.ParseGraphs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 10 {
		t.Fatalf("parsed %d graphs, want 10", len(back))
	}
	for i, g := range back {
		if !g.StructurallyEqual(ds.Graph(int32(i))) {
			t.Fatalf("graph %d changed across write/parse", i)
		}
	}
}

func TestParseGraphsString(t *testing.T) {
	gs, err := graphcache.ParseGraphsString("t # 0\nv 0 1\nv 1 2\ne 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 || gs[0].NumVertices() != 2 || gs[0].NumEdges() != 1 {
		t.Fatalf("unexpected parse result: %v", gs)
	}
	if _, err := graphcache.ParseGraphsString("t # 0\ne 0 1\n"); err == nil {
		t.Error("edge referencing undeclared vertices should fail to parse")
	}
}

// TestPolicyNames checks the public policy parser against all documented
// names.
func TestPolicyNames(t *testing.T) {
	for name, want := range map[string]graphcache.PolicyKind{
		"lru": graphcache.LRU, "pop": graphcache.POP, "pin": graphcache.PIN,
		"pinc": graphcache.PINC, "hd": graphcache.HD, "HD": graphcache.HD,
	} {
		got, err := graphcache.ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := graphcache.ParsePolicy("clock"); err == nil {
		t.Error("unknown policy should error")
	}
	if !strings.Contains(fmt.Sprint(graphcache.HD), "") { // PolicyKind must be printable
		t.Error("unreachable")
	}
}

// TestEstimateSubIsoCost sanity-checks the exported cost model: cost grows
// with target size and shrinks with label diversity.
func TestEstimateSubIsoCost(t *testing.T) {
	small := graphcache.EstimateSubIsoCost(5, 20, 4)
	big := graphcache.EstimateSubIsoCost(5, 40, 4)
	if big <= small {
		t.Errorf("cost should grow with N: c(5,20,4)=%g, c(5,40,4)=%g", small, big)
	}
	manyLabels := graphcache.EstimateSubIsoCost(5, 20, 16)
	if manyLabels >= small {
		t.Errorf("cost should shrink with L: L=4 %g, L=16 %g", small, manyLabels)
	}
	if c := graphcache.EstimateSubIsoCost(10, 5, 4); c != 0 {
		t.Errorf("N < n should cost 0, got %g", c)
	}
}

// TestTypeBWorkloadThroughFacade builds pools and checks the no-answer
// fractions and end-to-end cache correctness on a mixed workload.
func TestTypeBWorkloadThroughFacade(t *testing.T) {
	ds := smallAIDS(t)
	pools := graphcache.BuildTypeBPools(ds, graphcache.TypeBConfig{
		AnswerPoolPerSize:   30,
		NoAnswerPoolPerSize: 10,
		Sizes:               []int{4, 8},
	}, 11)
	qs := pools.Workload(graphcache.TypeBWorkloadConfig{
		NoAnswerProb: 0.5, Alpha: 1.4, NumQueries: 80,
	}, 13)
	if len(qs) != 80 {
		t.Fatalf("workload length %d, want 80", len(qs))
	}
	m := graphcache.NewVF2Plus(ds)
	gc := graphcache.New(m, graphcache.Options{CacheSize: 20, WindowSize: 5})
	noAns := 0
	for _, q := range qs {
		res := gc.Query(q.Graph)
		if q.NoAnswer {
			noAns++
			if len(res.Answer) != 0 {
				t.Fatalf("no-answer query returned %v", res.Answer)
			}
		}
	}
	if noAns == 0 || noAns == len(qs) {
		t.Errorf("no-answer mix = %d/%d, want a genuine mix", noAns, len(qs))
	}
	// Zipf selection within the pools repeats queries, so the cache must
	// see exact hits (the empty-answer shortcut itself is unit-tested in
	// internal/core).
	if gc.Totals().ExactHits == 0 {
		t.Error("a Zipf-repeating Type B workload should produce exact hits")
	}
}

// buildCycle returns a cycle of n vertices all labelled l.
func buildCycle(tb testing.TB, n int, l graphcache.Label) *graphcache.Graph {
	tb.Helper()
	b := graphcache.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(l)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// buildPath returns a path of n vertices all labelled l.
func buildPath(tb testing.TB, n int, l graphcache.Label) *graphcache.Graph {
	tb.Helper()
	b := graphcache.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(l)
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
