package graphcache_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§7), at laptop scale.
//
// Each BenchmarkFigN/BenchmarkTable1 drives the same experiment code as
// `gcbench -experiment <id>` (internal/bench) and reports the result grid
// through b.Log plus headline speedups as custom benchmark metrics, so
// `go test -bench=. -benchmem` regenerates the paper's evaluation and the
// numbers land in bench_output.txt. Absolute values depend on the machine
// and the scaled-down synthetic datasets; the shape (who wins, by roughly
// what factor) is what is compared against the paper.
//
// The smaller BenchmarkQuery* and BenchmarkBuild* benches below measure
// the primitive operations (sub-iso matchers, index construction, cache
// hit paths).

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache"
	"graphcache/internal/bench"
)

// benchScale is deliberately smaller than gcbench's default SmallScale so
// the full `go test -bench=.` run finishes in minutes.
func benchScale() bench.Scale {
	sc := bench.SmallScale()
	sc.CountFactor = 0.01
	sc.Queries = 300
	sc.DenseQueries = 120
	sc.AnswerPool = 120
	sc.NoAnswerPool = 40
	return sc
}

var (
	envOnce sync.Once
	envInst *bench.Env
)

// benchEnv memoises one Env across all experiment benchmarks: datasets,
// indexes and Type B pools are built once and reused, as in gcbench.
func benchEnv() *bench.Env {
	envOnce.Do(func() { envInst = bench.NewEnv(benchScale()) })
	return envInst
}

// runExperiment executes one experiment driver per benchmark iteration
// and logs its tables. The headline mean speedup across all numeric
// cells is attached as a custom metric (speedup-mean) so regressions in
// cache effectiveness show up in benchmark diffs, not only in wall time.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	env := benchEnv()
	var tables []*bench.Table
	for b.Loop() {
		tables = e.Run(env)
	}
	var buf bytes.Buffer
	sum, n := 0.0, 0
	for _, t := range tables {
		t.Format(&buf)
		for _, r := range t.Rows {
			for _, c := range r.Cells {
				sum += c
				n++
			}
		}
	}
	b.Log("\n" + buf.String())
	if n > 0 {
		b.ReportMetric(sum/float64(n), "cells-mean")
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig5And6(b *testing.B) {
	runExperiment(b, "fig5-6")
}
func BenchmarkFig7(b *testing.B)     { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// ---- Primitive benchmarks ----------------------------------------------

// benchDataset returns a fixed small molecule dataset for the primitive
// benches.
func benchDataset() *graphcache.Dataset {
	return graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.004, 1), 42)
}

func benchQueries(ds *graphcache.Dataset, n int) []graphcache.Query {
	cfg, err := graphcache.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, n)
	if err != nil {
		panic(err)
	}
	return graphcache.TypeA(ds, cfg, 7)
}

// BenchmarkQueryBare measures the bare methods' per-query cost.
func BenchmarkQueryBare(b *testing.B) {
	ds := benchDataset()
	qs := benchQueries(ds, 64)
	for _, mk := range []struct {
		name string
		m    graphcache.Method
	}{
		{"ggsx", graphcache.NewGGSX(ds, graphcache.GGSXOptions{})},
		{"grapes1", graphcache.NewGrapes(ds, graphcache.GrapesOptions{})},
		{"ctindex", graphcache.NewCTIndex(ds, graphcache.CTIndexOptions{})},
		{"vf2", graphcache.NewVF2(ds)},
		{"vf2plus", graphcache.NewVF2Plus(ds)},
		{"graphql", graphcache.NewGraphQL(ds)},
	} {
		b.Run(mk.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				graphcache.Answer(mk.m, qs[i%len(qs)].Graph)
				i++
			}
		})
	}
}

// BenchmarkQueryCached measures the per-query cost behind GraphCache on a
// repeating workload — the cache's steady-state hit path.
func BenchmarkQueryCached(b *testing.B) {
	ds := benchDataset()
	qs := benchQueries(ds, 64)
	for _, mk := range []struct {
		name string
		m    graphcache.Method
	}{
		{"ggsx", graphcache.NewGGSX(ds, graphcache.GGSXOptions{})},
		{"vf2plus", graphcache.NewVF2Plus(ds)},
	} {
		b.Run(mk.name, func(b *testing.B) {
			gc := graphcache.New(mk.m, graphcache.Options{CacheSize: 50, WindowSize: 10})
			for _, q := range qs { // warm the cache
				gc.Query(q.Graph)
			}
			i := 0
			for b.Loop() {
				gc.Query(qs[i%len(qs)].Graph)
				i++
			}
		})
	}
}

// BenchmarkQueryExactHit measures special case 1 alone: every query of the
// stream is held by a cache large enough never to evict it, so each
// iteration is feature extraction, the exact-match lookup with its one
// confirming sub-iso test, and bookkeeping — no Method M filter, no GCindex
// probe, no containment confirmations.
func BenchmarkQueryExactHit(b *testing.B) {
	ds := benchDataset()
	var qs []*graphcache.Graph
	for _, q := range benchQueries(ds, 64) {
		qs = append(qs, q.Graph)
	}
	gc := graphcache.New(graphcache.NewGGSX(ds, graphcache.GGSXOptions{}),
		graphcache.Options{CacheSize: 2 * len(qs), WindowSize: 8})
	gc.QueryBatch(qs) // eight whole windows: every distinct query is cached
	for i, r := range gc.QueryBatch(qs) {
		if !r.Stats.ExactHit {
			b.Fatalf("query %d is not an exact hit on a cache that holds the whole stream", i)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		gc.Query(qs[i%len(qs)])
		i++
	}
}

// BenchmarkCacheConcurrent measures the multi-caller query engine: the
// same repeating workload through one shared Cache, serially and from
// GOMAXPROCS concurrent callers (the b.RunParallel degree). The
// queries/sec metric is the headline: the parallel variant should clear
// the serial one on any multi-core machine.
func BenchmarkCacheConcurrent(b *testing.B) {
	ds := benchDataset()
	qs := benchQueries(ds, 64)
	newCache := func() *graphcache.Cache {
		gc := graphcache.New(graphcache.NewGGSX(ds, graphcache.GGSXOptions{}),
			graphcache.Options{CacheSize: 50, WindowSize: 10, AsyncRebuild: true})
		for _, q := range qs { // warm the cache
			gc.Query(q.Graph)
		}
		return gc
	}
	b.Run("serial", func(b *testing.B) {
		gc := newCache()
		i := 0
		for b.Loop() {
			gc.Query(qs[i%len(qs)].Graph)
			i++
		}
		gc.Flush()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("parallel", func(b *testing.B) {
		gc := newCache()
		var cursor atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(cursor.Add(1)) - 1
				gc.Query(qs[i%len(qs)].Graph)
			}
		})
		b.StopTimer() // drain async rebuilds untimed, as the serial variant does
		gc.Flush()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkQueryBatch compares one QueryBatch over 64 queries against 64
// sequential Query calls on an identically warmed cache — the execution
// primitive behind gcserved's POST /querybatch. The batch amortises
// index-snapshot loads, pool dispatches and statistics round-trips across
// the whole batch, so batched execution should be no slower than
// sequential on any machine and faster on multi-core ones.
func BenchmarkQueryBatch(b *testing.B) {
	ds := benchDataset()
	workload := benchQueries(ds, 64)
	qs := make([]*graphcache.Graph, len(workload))
	for i, q := range workload {
		qs[i] = q.Graph
	}
	newCache := func() *graphcache.Cache {
		gc := graphcache.New(graphcache.NewGGSX(ds, graphcache.GGSXOptions{}),
			graphcache.Options{CacheSize: 50, WindowSize: 10, AsyncRebuild: true})
		gc.QueryBatch(qs) // warm the cache
		return gc
	}
	b.Run("sequential-64", func(b *testing.B) {
		gc := newCache()
		for b.Loop() {
			for _, q := range qs {
				gc.Query(q)
			}
		}
		b.StopTimer()
		gc.Flush()
		b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("batch-64", func(b *testing.B) {
		gc := newCache()
		for b.Loop() {
			gc.QueryBatch(qs)
		}
		b.StopTimer()
		gc.Flush()
		b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkWindowRebuild measures steady-state window maintenance: no
// cached graph's paths are enumerated again (the counter test in
// internal/core pins that), and the GCindex delta is a few linear passes
// over the index's flat posting arrays; this bench tracks the cost.
func BenchmarkWindowRebuild(b *testing.B) {
	ds := benchDataset()
	qs := benchQueries(ds, 512)
	gc := graphcache.New(graphcache.NewVF2Plus(ds),
		graphcache.Options{CacheSize: 200, WindowSize: 20})
	for _, q := range qs { // fill the cache to capacity
		gc.Query(q.Graph)
	}
	gc.Flush()
	i := 0
	for b.Loop() {
		gc.Query(qs[i%len(qs)].Graph)
		i++
	}
	gc.Flush()
	tot := gc.Totals()
	if tot.WindowsProcessed > 0 {
		b.ReportMetric(float64(tot.MaintenanceTime.Nanoseconds())/float64(tot.WindowsProcessed), "ns/window")
	}
}

// BenchmarkIndexBuild measures FTV index construction (the pre-processing
// cost GraphCache avoids when used instead of an index, Fig. 12's story).
func BenchmarkIndexBuild(b *testing.B) {
	ds := benchDataset()
	b.Run("ggsx", func(b *testing.B) {
		for b.Loop() {
			graphcache.NewGGSX(ds, graphcache.GGSXOptions{})
		}
	})
	b.Run("grapes", func(b *testing.B) {
		for b.Loop() {
			graphcache.NewGrapes(ds, graphcache.GrapesOptions{})
		}
	})
	b.Run("ctindex", func(b *testing.B) {
		for b.Loop() {
			graphcache.NewCTIndex(ds, graphcache.CTIndexOptions{})
		}
	})
}

// BenchmarkSnapshot measures cache persistence: serialising and restoring
// a warmed 100-entry cache (§6.1's startup/shutdown path).
func BenchmarkSnapshot(b *testing.B) {
	ds := benchDataset()
	m := graphcache.NewVF2Plus(ds)
	gc := graphcache.New(m, graphcache.Options{CacheSize: 100, WindowSize: 20})
	for _, q := range benchQueries(ds, 256) {
		gc.Query(q.Graph)
	}
	gc.Flush()

	var snap bytes.Buffer
	if err := gc.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		for b.Loop() {
			var buf bytes.Buffer
			if err := gc.WriteSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for b.Loop() {
			fresh := graphcache.New(m, graphcache.Options{CacheSize: 100, WindowSize: 20})
			if err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubIso measures the raw matchers on a fixed query/target pair
// drawn from the dataset.
func BenchmarkSubIso(b *testing.B) {
	ds := benchDataset()
	qs := benchQueries(ds, 8)
	q := qs[0].Graph
	ms := map[string]graphcache.Method{
		"vf2":     graphcache.NewVF2(ds),
		"vf2plus": graphcache.NewVF2Plus(ds),
		"graphql": graphcache.NewGraphQL(ds),
	}
	for name, m := range ms {
		b.Run(name, func(b *testing.B) {
			id := int32(0)
			for b.Loop() {
				m.Verify(q, id)
				id = (id + 1) % int32(ds.Len())
			}
		})
	}
}
