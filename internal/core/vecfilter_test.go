package core

import (
	"reflect"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

// opaque shows the cache a method's Method and DynamicMethod sides only,
// hiding VectorFilter — what a decorator embedding the Method interface
// does.
type opaque struct{ method.Method }

func (o opaque) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	o.Method.(method.DynamicMethod).ApplyDatasetMutation(added, edited, removed)
}

// TestSharedVectorMatchesFallback runs one seeded stream — singles, a
// batch, and an add, a remove and an edit between them — through a cache
// that hands its extracted vector to GGSX and through caches that must
// not (the method's optional interface hidden, or the cache extracting at
// another path length than the index): answers and Totals are identical.
func TestSharedVectorMatchesFallback(t *testing.T) {
	type outcome struct {
		answers [][]int32
		totals  Totals
	}
	run := func(cacheLen int, hide, wantShared bool) outcome {
		t.Helper()
		ds := gen.DefaultAIDS().Scaled(0.003, 1).Generate(71)
		cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, 150)
		if err != nil {
			t.Fatal(err)
		}
		qs := workload.TypeA(ds, cfg, 72)
		var m method.Method = ggsx.New(ds, ggsx.Options{})
		if hide {
			m = opaque{m}
		}
		c := New(m, Options{CacheSize: 30, WindowSize: 6, MaxPathLen: cacheLen})
		if shared := c.vecFilter != nil; shared != wantShared {
			t.Fatalf("cache MaxPathLen %d, hidden %v: shares its vector = %v, want %v", cacheLen, hide, shared, wantShared)
		}
		var out outcome
		single := func(from, to int) {
			for _, q := range qs[from:to] {
				out.answers = append(out.answers, c.Query(q.Graph).Answer)
			}
		}
		mutate := func(_ MutationResult, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		single(0, 40)
		mutate(c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone(), ds.Graph(7).Clone()}))
		single(40, 70)
		mutate(c.RemoveGraphs([]int32{3, int32(ds.Len() - 1)}))
		batch := make([]*graph.Graph, 0, 40)
		for _, q := range qs[70:110] {
			batch = append(batch, q.Graph)
		}
		for _, r := range c.QueryBatch(batch) {
			out.answers = append(out.answers, r.Answer)
		}
		var u, v int32
		ds.Graph(5).Edges(func(a, b int32) { u, v = a, b })
		mutate(c.EditGraphEdges(5, []dataset.EdgeEdit{{U: u, V: v, Del: true}}))
		single(110, len(qs))
		out.totals = c.Totals()
		out.totals.FilterMTime, out.totals.FilterGCTime, out.totals.VerifyTime, out.totals.MaintenanceTime = 0, 0, 0, 0
		return out
	}
	for _, cacheLen := range []int{4, 3} {
		visible := run(cacheLen, false, cacheLen == 4)
		hidden := run(cacheLen, true, false)
		if !reflect.DeepEqual(visible.answers, hidden.answers) {
			t.Errorf("cache MaxPathLen %d: answers differ between the visible and the hidden index", cacheLen)
		}
		if visible.totals != hidden.totals {
			t.Errorf("cache MaxPathLen %d: totals differ:\nvisible %+v\nhidden  %+v", cacheLen, visible.totals, hidden.totals)
		}
		if visible.totals.ExactHits == 0 || visible.totals.Mutations != 3 {
			t.Errorf("cache MaxPathLen %d: stream exercised too little: %+v", cacheLen, visible.totals)
		}
	}
}

// TestEntryHashIsTheCountsHash pins the key a backend stores on its
// entries — the exact-lookup key and the value the router's affinity hash
// must reproduce — to the query graph's IsoKey, whether the query ran alone
// or in a batch.
func TestEntryHashIsTheCountsHash(t *testing.T) {
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(5)
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12, 16}, 60)
	if err != nil {
		t.Fatal(err)
	}
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 100, WindowSize: 1000})
	queries := []*graph.Graph{pathG(7), pathG(300, 1, 256)}
	for _, q := range workload.TypeA(ds, cfg, 6) {
		queries = append(queries, q.Graph)
	}
	c.QueryBatch(queries[:10])
	for _, q := range queries[10:] {
		c.Query(q)
	}
	seen := 0
	for _, e := range c.window {
		if want := e.g.IsoKey(); e.hash != want {
			t.Errorf("entry %d: stored key %x, IsoKey %x", e.serial, e.hash, want)
		}
		seen++
	}
	if seen < len(queries)/2 {
		t.Fatalf("only %d of %d queries reached a window", seen, len(queries))
	}
}
