// Molecules: chemical-pattern search with a policy bake-off.
//
// The paper's headline finding (§7.3, Figure 4) is that no single cache
// replacement policy wins everywhere — PIN leads on AIDS-like data, PINC
// on PDBS-like data — and that the hybrid HD policy tracks whichever is
// best. This example reproduces that comparison on a molecule dataset:
// the same CT-Index method and the same workload run once per policy, and
// the resulting speedups are printed side by side.
//
//	go run ./examples/molecules
package main

import (
	"fmt"
	"log"
	"time"

	"graphcache"
)

func main() {
	log.SetFlags(0)

	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.008, 1), 11)
	fmt.Printf("dataset: %d molecule-like graphs\n", ds.Len())

	// CT-Index: the FTV method with the strongest filter and the
	// fastest verifier of the three bundled ones.
	m := graphcache.NewCTIndex(ds, graphcache.CTIndexOptions{})

	// A Zipf-skewed exploratory workload: fragment queries of 4-12 edges.
	cfg, err := graphcache.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, 800)
	if err != nil {
		log.Fatal(err)
	}
	queries := graphcache.TypeA(ds, cfg, 23)

	// Baseline: the bare method.
	baseStart := time.Now()
	baseTests := 0
	for _, q := range queries {
		baseTests += len(m.Filter(q.Graph))
		graphcache.Answer(m, q.Graph)
	}
	baseTime := time.Since(baseStart)
	fmt.Printf("bare ctindex: %v, %d sub-iso tests\n\n", baseTime.Round(time.Millisecond), baseTests)

	fmt.Printf("%-6s %12s %14s %10s %10s\n", "policy", "time", "sub-iso tests", "t-speedup", "i-speedup")
	for _, pol := range []graphcache.PolicyKind{
		graphcache.LRU, graphcache.POP, graphcache.PIN, graphcache.PINC, graphcache.HD,
	} {
		// Window passes run on the query that fills the window, so the
		// time below includes them: one pass per 10 windowed queries.
		gc := graphcache.New(m, graphcache.Options{
			CacheSize:  50,
			WindowSize: 10,
			Policy:     pol,
		})
		start := time.Now()
		for _, q := range queries {
			gc.Query(q.Graph)
		}
		elapsed := time.Since(start)
		tot := gc.Totals()
		fmt.Printf("%-6v %12v %14d %9.2fx %9.2fx\n",
			pol, elapsed.Round(time.Millisecond), tot.SubIsoTests,
			safeDiv(float64(baseTime), float64(elapsed)),
			safeDiv(float64(baseTests), float64(tot.SubIsoTests)))
	}

	fmt.Println("\nThe paper's takeaway: when dataset and workload characteristics are")
	fmt.Println("unknown a priori, use HD — it picks between PIN and PINC at each")
	fmt.Println("eviction from the coefficient of variation of observed savings, and")
	fmt.Println("lands on or near the best policy for the data at hand.")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
