package iso_test

import (
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/workload"
)

// populationPairs returns the (query, graph) pairs a Method M verifies
// for UU queries (the paper's AIDS sizes) over an AIDS-like dataset of
// 40,000 × scale graphs: every graph, or GGSX's filter candidates.
func populationPairs(b *testing.B, scale float64, queries int, candidates bool) [][2]*graph.Graph {
	ds := gen.DefaultAIDS().Scaled(scale, 1).Generate(20170321)
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12, 16, 20}, queries)
	if err != nil {
		b.Fatal(err)
	}
	var idx *ggsx.Index
	if candidates {
		idx = ggsx.New(ds, ggsx.Options{})
	}
	var pairs [][2]*graph.Graph
	for _, q := range workload.TypeA(ds, cfg, 7920) {
		ids := allIDs(ds)
		if candidates {
			ids = idx.Filter(q.Graph)
		}
		for _, id := range ids {
			pairs = append(pairs, [2]*graph.Graph{q.Graph, ds.Graph(id)})
		}
	}
	return pairs
}

func allIDs(ds *dataset.Dataset) []int32 {
	ids := make([]int32, ds.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// BenchmarkPopulation runs the sub-iso tests of a Method M's verification
// over whole query populations, one pass over all pairs per op, and
// reports the mean cost of a test:
//   - cold: 2,400 graphs × 20 UU queries, every pair, with VF2+ — the
//     index-free method of the cold_uu fleet workload, where the screens
//     reject most pairs;
//   - ggsx-candidates: 800 graphs × 60 UU queries, GGSX's filter
//     candidates only, with VF2 — every pair passes the screens, so the
//     search is the cost.
func BenchmarkPopulation(b *testing.B) {
	cases := []struct {
		name       string
		scale      float64
		queries    int
		candidates bool
		algo       iso.Algorithm
	}{
		{"cold", 0.06, 20, false, iso.VF2Plus{}},
		{"ggsx-candidates", 0.02, 60, true, iso.VF2{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			pairs := populationPairs(b, c.scale, c.queries, c.candidates)
			b.ReportAllocs()
			for b.Loop() {
				for _, pt := range pairs {
					iso.Contains(c.algo, pt[0], pt[1])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/test")
		})
	}
}
