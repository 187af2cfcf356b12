// Quickstart: the smallest complete GraphCache program.
//
// It builds a molecule-style dataset, indexes it with GraphGrepSX, wraps
// the method in GraphCache, runs a skewed workload, and prints what the
// cache did. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"graphcache"
)

func main() {
	log.SetFlags(0)

	// 1. A dataset. Real deployments parse one with graphcache.ParseGraphs;
	// here we synthesise 400 molecule-like graphs (5% of the AIDS dataset's
	// 40,000, same graph shapes).
	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.01, 1), 42)
	st := ds.ComputeStats()
	fmt.Printf("dataset: %d graphs, avg %.0f vertices / %.0f edges, %d labels\n",
		st.NumGraphs, st.AvgVertices, st.AvgEdges, st.DistinctLabels)

	// 2. A query-processing method — the paper's "Method M". Any of the
	// six bundled methods (or your own) plugs in identically.
	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})

	// 3. GraphCache in front of it. The zero Options value is the paper's
	// default configuration: 100 cached queries, window of 20, HD policy.
	// Each window's maintenance pass runs on the query that fills it and
	// is counted in Totals().MaintenanceTime, not in a query's TotalTime.
	gc := graphcache.New(m, graphcache.Options{})

	// 4. A workload. Type A "ZZ": Zipf-skewed choice of source graph and
	// start node — queries repeat and overlap, the premise of any cache.
	cfg, err := graphcache.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, 1000)
	if err != nil {
		log.Fatal(err)
	}
	queries := graphcache.TypeA(ds, cfg, 7)

	// 5. Run it.
	start := time.Now()
	withAnswers := 0
	for _, q := range queries {
		res := gc.Query(q.Graph)
		if len(res.Answer) > 0 {
			withAnswers++
		}
	}
	elapsed := time.Since(start)

	tot := gc.Totals()
	fmt.Printf("\n%d queries in %v; %d had non-empty answers\n",
		tot.Queries, elapsed.Round(time.Millisecond), withAnswers)
	fmt.Printf("sub-iso tests actually run: %d\n", tot.SubIsoTests)
	fmt.Printf("cache hits: %d exact, %d subgraph (query ⊆ cached), %d supergraph (cached ⊆ query), %d empty shortcuts\n",
		tot.ExactHits, tot.ContainerHits, tot.ContaineeHits, tot.EmptyShortcuts)
	fmt.Printf("cache maintenance (window passes, part of the time above): %v\n",
		tot.MaintenanceTime.Round(time.Microsecond))

	// 6. The same workload without the cache, for comparison.
	startBase := time.Now()
	baseTests := 0
	for _, q := range queries {
		baseTests += len(m.Filter(q.Graph))
		graphcache.Answer(m, q.Graph)
	}
	baseElapsed := time.Since(startBase)
	fmt.Printf("\nbare %s: %v, %d sub-iso tests\n", m.Name(), baseElapsed.Round(time.Millisecond), baseTests)
	if elapsed > 0 {
		fmt.Printf("speedup: %.2fx time, %.2fx sub-iso tests\n",
			float64(baseElapsed)/float64(elapsed),
			float64(baseTests)/float64(max64(tot.SubIsoTests, 1)))
	}
}

func max64(v, lo int64) int64 {
	if v < lo {
		return lo
	}
	return v
}
