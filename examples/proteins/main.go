// Proteins: cache pollution and admission control on dense graphs.
//
// On dense datasets (the paper's PCM protein contact maps, average degree
// ≈ 22) GraphCache discovered the cache-pollution problem (§6.2): cheap
// queries fill the cache and the expensive queries — which dominate total
// time — see little benefit. The fix is admission control: score each
// query's expensiveness as verification time over filtering time, and
// only admit the top fraction.
//
// This example illustrates the paper's Figure 9 trade-off on a
// contact-map dataset: admission control trades hit volume for hit
// value, so the wall-clock speedup can rise even as the sub-iso-test
// speedup falls. It prints the tail statistics behind the effect (the
// paper's top-1% analysis); at this micro scale individual runs are
// noisy — the tuned, repeatable experiment is
// `gcbench -experiment fig9`.
//
//	go run ./examples/proteins
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"graphcache"
)

func main() {
	log.SetFlags(0)

	// A small protein-contact-map-like dataset: few graphs, dense.
	ds := graphcache.PCMLike(graphcache.DefaultPCM().Scaled(0.15, 0.2), 5)
	st := ds.ComputeStats()
	fmt.Printf("dataset: %d graphs, avg degree %.1f\n", st.NumGraphs, st.AvgDegree)

	// On dense graphs, length-4 path enumeration is combinatorially
	// infeasible; index paths of length ≤ 2, as the experiment harness
	// does for PCM/Synthetic (bench.Env.Method says why).
	m := graphcache.NewGrapes(ds, graphcache.GrapesOptions{Threads: 6, MaxPathLen: 2})

	// A Type B workload with 20% no-answer queries, as in Figure 9. The
	// paper queries PCM with 20-40-edge patterns; the larger sizes are
	// what makes verification expensive and its cost highly variable.
	pools := graphcache.BuildTypeBPools(ds, graphcache.TypeBConfig{
		AnswerPoolPerSize:   60,
		NoAnswerPoolPerSize: 20,
		Sizes:               []int{16, 20, 25},
	}, 17)
	queries := pools.Workload(graphcache.TypeBWorkloadConfig{
		NoAnswerProb: 0.2, Alpha: 1.4, NumQueries: 800,
	}, 23)

	// Baseline.
	baseTimes := make([]time.Duration, len(queries))
	baseTests := 0
	for i, q := range queries {
		baseTests += len(m.Filter(q.Graph))
		qStart := time.Now()
		graphcache.Answer(m, q.Graph)
		baseTimes[i] = time.Since(qStart)
	}
	baseTotal := sum(baseTimes)
	fmt.Printf("bare grapes6: %v, %d sub-iso tests\n", baseTotal.Round(time.Millisecond), baseTests)
	fmt.Printf("top-5%% most expensive queries account for %.0f%% of total time\n\n",
		100*tailShare(baseTimes, 0.05))

	// The paper's §7.3 analysis tracks what happens to the expensive
	// tail specifically: mark the top-5% most expensive queries under
	// the baseline and measure their cost under each cache mode.
	expensive := topIndexes(baseTimes, 0.05)
	baseTail := sumAt(baseTimes, expensive)

	for _, mode := range []struct {
		name      string
		admission float64
	}{
		{"cache only (C)", 0},
		{"cache + admission control (C+AC)", 0.25},
	} {
		// The cache must be small relative to the distinct-query
		// population (240 pool entries here), or pollution never occurs
		// — the paper's C = 100 faces pools of 65,000.
		gc := graphcache.New(m, graphcache.Options{
			CacheSize:         12,
			WindowSize:        6,
			Policy:            graphcache.HD,
			AdmissionFraction: mode.admission,
			AsyncRebuild:      true,
		})
		times := make([]time.Duration, len(queries))
		for i, q := range queries {
			qStart := time.Now()
			gc.Query(q.Graph)
			times[i] = time.Since(qStart)
		}
		total := sum(times)
		tot := gc.Totals()
		fmt.Printf("%s:\n", mode.name)
		fmt.Printf("  %v total (%.2fx time speedup), %d sub-iso tests (%.2fx fewer)\n",
			total.Round(time.Millisecond),
			safeDiv(float64(baseTotal), float64(total)),
			tot.SubIsoTests,
			safeDiv(float64(baseTests), float64(tot.SubIsoTests)))
		fmt.Printf("  hits: %d exact, %d container, %d containee; rejected by admission: %d\n",
			tot.ExactHits, tot.ContainerHits, tot.ContaineeHits, tot.RejectedByAdmission)
		tail := sumAt(times, expensive)
		fmt.Printf("  expensive-tail time: %v -> %v (%.2fx speedup on the tail)\n",
			baseTail.Round(time.Millisecond), tail.Round(time.Millisecond),
			safeDiv(float64(baseTail), float64(tail)))
		if mode.admission > 0 {
			fmt.Printf("  calibrated expensiveness threshold: %.2f (verify/filter time)\n",
				gc.AdmissionThreshold())
		}
		fmt.Println()
	}

	fmt.Println("What to look for, per the paper's §7.3 analysis: admission control")
	fmt.Println("concentrates the cache on expensive queries, trading hit volume for")
	fmt.Println("hit value. Single runs at this micro scale are noisy; the tuned,")
	fmt.Println("repeatable experiment is `go run ./cmd/gcbench -experiment fig9`.")
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// tailShare returns the fraction of total time consumed by the top-f
// fraction of entries.
func tailShare(ds []time.Duration, f float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	k := int(f * float64(len(sorted)))
	if k < 1 {
		k = 1
	}
	return float64(sum(sorted[:k])) / float64(sum(sorted))
}

// topIndexes returns the indexes of the top-f fraction of entries by
// value.
func topIndexes(ds []time.Duration, f float64) []int {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return ds[idx[i]] > ds[idx[j]] })
	k := int(f * float64(len(ds)))
	if k < 1 {
		k = 1
	}
	return idx[:k]
}

// sumAt sums the entries at the given indexes.
func sumAt(ds []time.Duration, idx []int) time.Duration {
	var t time.Duration
	for _, i := range idx {
		t += ds[i]
	}
	return t
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
