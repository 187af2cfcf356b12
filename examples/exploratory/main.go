// Exploratory analytics: sub/supergraph hits beyond exact matching.
//
// The paper motivates GraphCache with exploratory query sessions: an
// analyst starts broad and narrows down (each refinement is a supergraph
// of the previous query), or starts specific and generalises (each step
// is a subgraph). A traditional exact-match cache never hits on such
// sessions; GraphCache's semantic matching hits on every step.
//
// This example simulates drill-down sessions over a molecule dataset and
// separates the benefit by hit kind. It then flips the direction and runs
// *supergraph queries* (find the dataset fragments contained in my query)
// through the same cache machinery.
//
//	go run ./examples/exploratory
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"graphcache"
)

func main() {
	log.SetFlags(0)

	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.008, 1), 29)
	fmt.Printf("dataset: %d molecule-like graphs\n\n", ds.Len())

	// ---- Part 1: drill-down sessions as subgraph queries -------------
	//
	// Each session picks a dataset graph and a start vertex, then issues
	// queries of growing size along one BFS expansion: q1 ⊆ q2 ⊆ q3 ⊆ q4.
	// Sessions repeat with Zipf-like popularity, but *within* a session
	// every query is new — exact matching alone cannot help.
	r := rand.New(rand.NewSource(31))
	sessions := makeSessions(ds, 60, r)
	var queries []*graphcache.Graph
	for i := 0; i < 240; i++ {
		s := sessions[zipfPick(r, len(sessions))]
		queries = append(queries, s...)
	}
	fmt.Printf("workload: %d drill-down queries (%d sessions of %d steps)\n",
		len(queries), len(sessions), len(sessions[0]))

	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})

	baseStart := time.Now()
	baseTests := 0
	for _, q := range queries {
		baseTests += len(m.Filter(q))
		graphcache.Answer(m, q)
	}
	baseTime := time.Since(baseStart)

	gc := graphcache.New(m, graphcache.Options{CacheSize: 100, WindowSize: 20})
	gcStart := time.Now()
	for _, q := range queries {
		gc.Query(q)
	}
	gcTime := time.Since(gcStart)
	tot := gc.Totals()

	fmt.Printf("bare ggsx:   %v, %d sub-iso tests\n", baseTime.Round(time.Millisecond), baseTests)
	fmt.Printf("graphcache:  %v, %d sub-iso tests (%.2fx time, %.2fx tests)\n",
		gcTime.Round(time.Millisecond), tot.SubIsoTests,
		safeDiv(float64(baseTime), float64(gcTime)),
		safeDiv(float64(baseTests), float64(tot.SubIsoTests)))
	fmt.Printf("hit breakdown: %d exact, %d subgraph-of-cached (Eq.1), %d supergraph-of-cached (Eq.2), %d empty shortcuts\n\n",
		tot.ExactHits, tot.ContainerHits, tot.ContaineeHits, tot.EmptyShortcuts)

	// ---- Part 2: the inverse direction — supergraph queries ----------
	//
	// Build a dataset of small fragments and ask, for a large molecule,
	// which fragments it contains. GraphCache inverts Eq. 1/2 for
	// supergraph-mode methods automatically.
	fragCfg, err := graphcache.TypeACategory("UU", 1.4, []int{4, 6}, 150)
	if err != nil {
		log.Fatal(err)
	}
	frags := graphcache.TypeA(ds, fragCfg, 37)
	fgs := make([]*graphcache.Graph, len(frags))
	for i, f := range frags {
		fgs[i] = f.Graph
	}
	fragDS := graphcache.NewDataset(fgs)
	super := graphcache.NewSupergraphSI(fragDS)
	sgc := graphcache.New(super, graphcache.Options{CacheSize: 50, WindowSize: 10})

	// Supergraph queries: Zipf-repeated dataset molecules.
	mols := ds.Graphs()
	answered := 0
	superStart := time.Now()
	for i := 0; i < 300; i++ {
		q := mols[zipfPick(r, len(mols))]
		res := sgc.Query(q)
		if len(res.Answer) > 0 {
			answered++
		}
	}
	superTime := time.Since(superStart)
	stot := sgc.Totals()
	fmt.Printf("supergraph mode: 300 queries over %d fragments in %v\n",
		fragDS.Len(), superTime.Round(time.Millisecond))
	fmt.Printf("%d queries matched fragments; hits: %d exact, %d container, %d containee; %d sub-iso tests\n",
		answered, stot.ExactHits, stot.ContainerHits, stot.ContaineeHits, stot.SubIsoTests)
}

// makeSessions builds n drill-down sessions of 4 growing BFS-extracted
// queries each.
func makeSessions(ds *graphcache.Dataset, n int, r *rand.Rand) [][]*graphcache.Graph {
	var sessions [][]*graphcache.Graph
	for len(sessions) < n {
		g := ds.Graph(int32(r.Intn(ds.Len())))
		start := int32(r.Intn(g.NumVertices()))
		order := g.BFSOrder(start)
		if len(order) < 14 {
			continue
		}
		var steps []*graphcache.Graph
		ok := true
		for _, size := range []int{4, 7, 10, 14} {
			sub, _, err := g.InducedSubgraph(order[:size])
			if err != nil || !sub.IsConnected() {
				ok = false
				break
			}
			steps = append(steps, sub)
		}
		if ok {
			sessions = append(sessions, steps)
		}
	}
	return sessions
}

// zipfPick samples an index in [0,n) with a Zipf-like skew (rank-1/rank
// weighting, cheap and good enough for an example).
func zipfPick(r *rand.Rand, n int) int {
	for {
		i := int(float64(n) * r.Float64() * r.Float64())
		if i < n {
			return i
		}
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
