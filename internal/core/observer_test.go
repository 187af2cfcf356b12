package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// recordingObserver collects every window observation, guarded for
// concurrent window passes.
type recordingObserver struct {
	mu      sync.Mutex
	windows []WindowObservation
}

func (r *recordingObserver) ObserveWindow(o WindowObservation) {
	r.mu.Lock()
	r.windows = append(r.windows, o)
	r.mu.Unlock()
}

// TestQueryStatsStageSplit: every returned QueryStats — single-query and
// batched path, special-case hits included — carries a GC-stage split that
// is never negative and sums to at most the GC stage, and a total no
// shorter than its verification; the Observer still sees the window passes.
func TestQueryStatsStageSplit(t *testing.T) {
	ds := moleculeDataset(40, 11)
	queries := typeAWorkload(ds, "ZZ", 60, 12)
	rec := &recordingObserver{}
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 5})
	c.SetObserver(rec)

	var results []Result
	for _, q := range queries[:30] {
		results = append(results, c.Query(q.Graph))
	}
	// Batched path: remaining queries in two batches.
	for _, bounds := range [][2]int{{30, 45}, {45, 60}} {
		gs := make([]*graph.Graph, 0, bounds[1]-bounds[0])
		for _, q := range queries[bounds[0]:bounds[1]] {
			gs = append(gs, q.Graph)
		}
		results = append(results, c.QueryBatch(gs)...)
	}
	c.Flush()

	serials := map[int64]bool{}
	for _, r := range results {
		qs := r.Stats
		if serials[qs.Serial] {
			t.Fatalf("serial %d returned twice", qs.Serial)
		}
		serials[qs.Serial] = true
		if qs.FeatureTime < 0 || qs.ProbeTime < 0 || qs.GCVerifyTime < 0 {
			t.Fatalf("negative stage timing: %+v", qs)
		}
		if sum := qs.FeatureTime + qs.ProbeTime + qs.GCVerifyTime; sum > qs.FilterGCTime {
			t.Fatalf("stage split %v exceeds the GC stage %v: %+v", sum, qs.FilterGCTime, qs)
		}
		if qs.TotalTime() < qs.VerifyTime {
			t.Fatalf("total %v < verify %v", qs.TotalTime(), qs.VerifyTime)
		}
		if qs.Credit < 0 {
			t.Fatalf("negative credit: %+v", qs)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.windows) == 0 {
		t.Fatal("no window observations after Flush")
	}
	for _, w := range rec.windows {
		if w.DurationNS <= 0 || w.WindowSize <= 0 {
			t.Fatalf("implausible window observation %+v", w)
		}
	}
}

// TestQueryStatsRunShapes: a run of one query is not a batch through any
// entry point, and a batch's returned stats carry non-zero per-query
// shares of the GC sub-stages the pipeline times for every run.
func TestQueryStatsRunShapes(t *testing.T) {
	ds := moleculeDataset(40, 19)
	queries := typeAWorkload(ds, "ZZ", 30, 20)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 20, WindowSize: 5})
	gs := make([]*graph.Graph, len(queries))
	for i, q := range queries {
		gs[i] = q.Graph
		c.Query(q.Graph)
	}
	c.QueryBatch(gs[:1])
	if _, _, err := c.QueryBatchContext(context.Background(), gs[1:2]); err != nil {
		t.Fatal(err)
	}
	if b := c.Totals().Batches; b != 0 {
		t.Fatalf("runs of one counted as %d batches", b)
	}
	// Warm cache: every query probes, most confirm a hit.
	for i, r := range c.QueryBatch(gs) {
		if qs := r.Stats; qs.FeatureTime <= 0 || qs.ProbeTime <= 0 || qs.GCVerifyTime <= 0 {
			t.Errorf("batched query %d lacks a GC sub-stage share: feature %v, probe %v, gcverify %v",
				i, qs.FeatureTime, qs.ProbeTime, qs.GCVerifyTime)
		}
	}
	if b := c.Totals().Batches; b != 1 {
		t.Fatalf("Totals.Batches = %d after one batch, want 1", b)
	}
}

// TestSetObserverSwap installs an observer after construction and
// removes it again; only the window pass run while it was installed is
// observed.
func TestSetObserverSwap(t *testing.T) {
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(13)
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 10, WindowSize: 5})
	queries := typeAWorkload(ds, "UU", 60, 14)
	next := 0
	// pass runs queries until one more window pass has completed.
	pass := func() {
		t.Helper()
		for done := c.Totals().WindowsProcessed; c.Totals().WindowsProcessed == done; next++ {
			if next == len(queries) {
				t.Fatalf("%d queries ran %d window passes", next, done)
			}
			c.Query(queries[next].Graph)
			c.Flush()
		}
	}

	pass()
	rec := &recordingObserver{}
	c.SetObserver(rec)
	pass()
	c.SetObserver(nil)
	pass()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.windows) != 1 || rec.windows[0].WindowSize == 0 {
		t.Fatalf("observer saw %+v, want exactly the one window pass run while installed", rec.windows)
	}
}

// TestNilObserverAllocations is the benchmark-guarded zero-cost claim:
// a warmed cache answering a repeat query must allocate no more with
// the default nil observer than the code allocated before the hook
// existed. The absolute ceiling is enforced relative to an installed
// no-op observer — nil must never cost more than an installed one.
func TestNilObserverAllocations(t *testing.T) {
	ds := moleculeDataset(30, 15)
	queries := typeAWorkload(ds, "ZZ", 40, 16)
	build := func(o Observer) *Cache {
		c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 20, WindowSize: 5})
		c.SetObserver(o)
		for _, q := range queries {
			c.Query(q.Graph)
		}
		c.Flush()
		return c
	}
	nilCache := build(nil)
	noopCache := build(noopObserver{})
	q := queries[0].Graph

	// AllocsPerRun counts every goroutine of the process, so any single
	// round can be off by an alloc. A real nil-path cost (say, boxing an
	// observation) is systematic and would show in every round; transient
	// noise is not — pass on the first clean round.
	var nilAllocs, noopAllocs float64
	for round := 0; round < 5; round++ {
		nilAllocs = testing.AllocsPerRun(50, func() { nilCache.Query(q) })
		noopAllocs = testing.AllocsPerRun(50, func() { noopCache.Query(q) })
		if nilAllocs <= noopAllocs {
			t.Logf("allocs/query: nil=%.1f noop=%.1f (round %d)", nilAllocs, noopAllocs, round)
			return
		}
	}
	t.Fatalf("nil observer allocates more than an installed one in every round: %.1f > %.1f allocs/query", nilAllocs, noopAllocs)
}

type noopObserver struct{}

func (noopObserver) ObserveWindow(WindowObservation) {}

// BenchmarkQueryNilObserver pins the nil-observer hot path for the
// ±2% BenchmarkQueryCached acceptance bar: compare against
// BenchmarkQueryNoopObserver to see the hook's cost directly.
func BenchmarkQueryNilObserver(b *testing.B)  { benchObserver(b, nil) }
func BenchmarkQueryNoopObserver(b *testing.B) { benchObserver(b, noopObserver{}) }

func benchObserver(b *testing.B, o Observer) {
	ds := moleculeDataset(30, 17)
	queries := typeAWorkload(ds, "ZZ", 40, 18)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 20, WindowSize: 5})
	c.SetObserver(o)
	for _, q := range queries {
		c.Query(q.Graph)
	}
	c.Flush()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.Query(queries[i%len(queries)].Graph)
		i++
	}
}

// TestRunTimesSumToTotals: a run's per-query stage times are its stages'
// shares, so the times its Results carry sum to exactly what the run adds
// to Totals — for a mixed batch (exact hits, fresh queries, verification
// spread over many candidate sets) and for a lone query alike.
func TestRunTimesSumToTotals(t *testing.T) {
	ds := moleculeDataset(60, 23)
	queries := typeAWorkload(ds, "ZZ", 60, 24)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 20, WindowSize: 5})
	for _, q := range queries[:40] {
		c.Query(q.Graph)
	}
	c.Flush()

	check := func(name string, gs []*graph.Graph) {
		before := c.Totals()
		var verify, filterM, filterGC time.Duration
		exact, tests := 0, 0
		for _, r := range c.QueryBatch(gs) {
			verify += r.Stats.VerifyTime
			filterM += r.Stats.FilterMTime
			filterGC += r.Stats.FilterGCTime
			tests += r.Stats.SubIsoTests
			if r.Stats.ExactHit {
				exact++
			}
		}
		after := c.Totals()
		if d := after.VerifyTime - before.VerifyTime; verify != d {
			t.Errorf("%s: results' VerifyTime sums to %v, Totals grew by %v", name, verify, d)
		}
		if d := after.FilterMTime - before.FilterMTime; filterM != d {
			t.Errorf("%s: results' FilterMTime sums to %v, Totals grew by %v", name, filterM, d)
		}
		if d := after.FilterGCTime - before.FilterGCTime; filterGC != d {
			t.Errorf("%s: results' FilterGCTime sums to %v, Totals grew by %v", name, filterGC, d)
		}
		if tests == 0 || verify <= 0 {
			t.Errorf("%s: %d sub-iso tests in %v: the verification stage was not exercised", name, tests, verify)
		}
		if len(gs) > 1 && exact == 0 {
			t.Errorf("%s: no exact hit: the batch is not mixed", name)
		}
	}
	var batch []*graph.Graph
	for _, q := range queries[20:60] {
		batch = append(batch, q.Graph)
	}
	check("batch", batch)
	check("lone query", []*graph.Graph{typeAWorkload(ds, "UU", 1, 25)[0].Graph})
}
