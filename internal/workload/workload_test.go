package workload

import (
	"math"
	"math/rand"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

func testDataset() *dataset.Dataset {
	return gen.DefaultAIDS().Scaled(0.002, 1).Generate(42) // 80 molecule graphs
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(1.4, 100)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 100 {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] < counts[1] || counts[1] < counts[5] {
		t.Errorf("Zipf counts not decreasing: %v", counts[:8])
	}
	// Rank-0 share for alpha=1.4 over 100 ranks ≈ 1/ζ-ish; must dominate.
	if counts[0] < 4000 {
		t.Errorf("rank 0 drew %d of 20000; too flat for alpha=1.4", counts[0])
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	z := NewZipf(0, 10)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.Sample(r)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-1000) > 250 {
			t.Errorf("rank %d count %d; not uniform", k, c)
		}
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(1.4, 0) must panic")
		}
	}()
	NewZipf(1.4, 0)
}

func TestTypeACategory(t *testing.T) {
	cases := []struct {
		cat        string
		graphD, nD Dist
	}{
		{"UU", Uniform, Uniform},
		{"ZU", Zipfian, Uniform},
		{"ZZ", Zipfian, Zipfian},
	}
	for _, tc := range cases {
		cfg, err := TypeACategory(tc.cat, 1.4, []int{4, 8}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.GraphDist != tc.graphD || cfg.NodeDist != tc.nD {
			t.Errorf("%s: wrong distributions", tc.cat)
		}
	}
	if _, err := TypeACategory("XX", 1.4, nil, 0); err == nil {
		t.Error("unknown category must error")
	}
}

func TestTypeAQueriesComeFromDataset(t *testing.T) {
	ds := testDataset()
	cfg, _ := TypeACategory("UU", 1.4, []int{4, 8, 12}, 50)
	qs := TypeA(ds, cfg, 7)
	if len(qs) != 50 {
		t.Fatalf("got %d queries, want 50", len(qs))
	}
	algo := iso.VF2{}
	for i, q := range qs {
		if q.Graph.NumEdges() == 0 {
			t.Fatalf("query %d has no edges", i)
		}
		if q.Graph.NumEdges() > 12+8 {
			t.Errorf("query %d wildly overshoots size: %d edges", i, q.Graph.NumEdges())
		}
		if q.NoAnswer {
			t.Errorf("Type A queries never come from a no-answer pool")
		}
		// Extracted queries must have at least one dataset answer.
		found := false
		for _, g := range ds.Graphs() {
			if iso.Contains(algo, q.Graph, g) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("query %d has no answer despite extraction from dataset", i)
		}
	}
}

func TestTypeADeterministic(t *testing.T) {
	ds := testDataset()
	cfg, _ := TypeACategory("ZZ", 1.4, []int{4, 8}, 30)
	a := TypeA(ds, cfg, 99)
	b := TypeA(ds, cfg, 99)
	for i := range a {
		if !a[i].Graph.StructurallyEqual(b[i].Graph) {
			t.Fatalf("same seed produced different query %d", i)
		}
	}
}

// typeAPerQuery is TypeA as first written, building the node Zipf's CDF
// afresh for every query: the reference that pins TypeA's stream.
func typeAPerQuery(ds *dataset.Dataset, cfg TypeAConfig, seed int64) []Query {
	r := rand.New(rand.NewSource(seed))
	graphZipf := NewZipf(cfg.Alpha, ds.Len())
	var queries []Query
	for len(queries) < cfg.NumQueries {
		size := cfg.Sizes[r.Intn(len(cfg.Sizes))]
		var g *graph.Graph
		if cfg.GraphDist == Zipfian {
			g = ds.Graph(int32(graphZipf.Sample(r)))
		} else {
			g = ds.Graph(int32(r.Intn(ds.Len())))
		}
		if g.NumVertices() == 0 {
			continue
		}
		var node int32
		if cfg.NodeDist == Zipfian {
			node = int32(NewZipf(cfg.Alpha, g.NumVertices()).Sample(r))
		} else {
			node = int32(r.Intn(g.NumVertices()))
		}
		if q := bfsExtract(g, node, size); q.NumEdges() > 0 {
			queries = append(queries, Query{Graph: q})
		}
	}
	return queries
}

// TestTypeAStreamMatchesPerQueryZipf pins that sharing one node Zipf per
// vertex count leaves every category's stream as it was.
func TestTypeAStreamMatchesPerQueryZipf(t *testing.T) {
	ds := testDataset()
	for _, cat := range []string{"UU", "ZU", "ZZ"} {
		cfg, _ := TypeACategory(cat, 1.4, []int{4, 8, 12}, 300)
		for seed := int64(1); seed <= 3; seed++ {
			got, want := TypeA(ds, cfg, seed), typeAPerQuery(ds, cfg, seed)
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d queries, want %d", cat, seed, len(got), len(want))
			}
			for i := range got {
				if !got[i].Graph.StructurallyEqual(want[i].Graph) {
					t.Fatalf("%s seed %d: query %d differs from the per-query construction", cat, seed, i)
				}
			}
		}
	}
}

func TestTypeAZipfRepeatsQueries(t *testing.T) {
	// ZZ workloads must contain repeated (identical) queries — the fuel of
	// exact-match cache hits.
	ds := testDataset()
	cfg, _ := TypeACategory("ZZ", 1.7, []int{4}, 120)
	qs := TypeA(ds, cfg, 3)
	repeats := 0
	for i := 1; i < len(qs); i++ {
		for j := 0; j < i; j++ {
			if qs[i].Graph.StructurallyEqual(qs[j].Graph) {
				repeats++
				break
			}
		}
	}
	if repeats == 0 {
		t.Error("highly skewed ZZ workload produced no repeated queries")
	}
}

func TestBFSExtractSizes(t *testing.T) {
	ds := testDataset()
	g := ds.Graph(0)
	q := bfsExtract(g, 0, 6)
	if q.NumEdges() < 6 && q.NumEdges() < g.NumEdges() {
		t.Errorf("bfsExtract stopped early: %d edges", q.NumEdges())
	}
	if !q.IsConnected() {
		t.Error("BFS extraction must be connected")
	}
}

func TestBuildTypeBPoolsAndWorkload(t *testing.T) {
	ds := testDataset()
	cfg := TypeBConfig{
		AnswerPoolPerSize:   20,
		NoAnswerPoolPerSize: 6,
		Sizes:               []int{4, 8},
	}
	pools := BuildTypeBPools(ds, cfg, 5)
	algo := iso.VF2{}
	for _, size := range cfg.Sizes {
		if len(pools.Answer[size]) != 20 {
			t.Fatalf("answer pool size %d = %d, want 20", size, len(pools.Answer[size]))
		}
		if len(pools.NoAnswer[size]) != 6 {
			t.Fatalf("no-answer pool size %d = %d, want 6", size, len(pools.NoAnswer[size]))
		}
		for _, q := range pools.Answer[size] {
			if q.NumEdges() != size {
				t.Errorf("answerable query has %d edges, want %d", q.NumEdges(), size)
			}
		}
		// No-answer queries: empty answer, non-empty candidates.
		for _, q := range pools.NoAnswer[size] {
			candidates := 0
			for _, g := range ds.Graphs() {
				if g.LabelsDominate(q) {
					candidates++
					if iso.Contains(algo, q, g) {
						t.Fatal("no-answer query has an answer")
					}
				}
			}
			if candidates == 0 {
				t.Error("no-answer query has empty candidate set")
			}
		}
	}

	wl := pools.Workload(TypeBWorkloadConfig{NoAnswerProb: 0.5, NumQueries: 200}, 8)
	if len(wl) != 200 {
		t.Fatalf("workload size = %d", len(wl))
	}
	noAns := 0
	for _, q := range wl {
		if q.NoAnswer {
			noAns++
		}
	}
	if noAns < 60 || noAns > 140 {
		t.Errorf("no-answer fraction %d/200 far from 50%%", noAns)
	}

	wl0 := pools.Workload(TypeBWorkloadConfig{NoAnswerProb: 0, NumQueries: 100}, 9)
	for _, q := range wl0 {
		if q.NoAnswer {
			t.Fatal("0% workload contains no-answer query")
		}
	}
}

func TestTypeBWorkloadDeterministic(t *testing.T) {
	ds := testDataset()
	pools := BuildTypeBPools(ds, TypeBConfig{AnswerPoolPerSize: 10, NoAnswerPoolPerSize: 3, Sizes: []int{4}}, 5)
	a := pools.Workload(TypeBWorkloadConfig{NoAnswerProb: 0.2, NumQueries: 50}, 10)
	b := pools.Workload(TypeBWorkloadConfig{NoAnswerProb: 0.2, NumQueries: 50}, 10)
	for i := range a {
		if a[i].Graph != b[i].Graph || a[i].NoAnswer != b[i].NoAnswer {
			t.Fatal("same seed produced different workloads")
		}
	}
}

func TestRandomWalkQueryRespectsSize(t *testing.T) {
	ds := testDataset()
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 50; i++ {
		q := randomWalkQuery(r, ds, 6)
		if q == nil {
			continue
		}
		if q.NumEdges() != 6 {
			t.Errorf("walk query has %d edges, want 6", q.NumEdges())
		}
		if !q.IsConnected() {
			t.Error("walk query must be connected")
		}
	}
}
