package core

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

// TestQueryBatchMatchesSequential is the batch engine's central identity
// property: replaying a workload through QueryBatch must produce, query by
// query, byte-identical answers to sequential Query calls, whatever the
// batch size.
func TestQueryBatchMatchesSequential(t *testing.T) {
	ds := moleculeDataset(60, 21)
	queries := typeAWorkload(ds, "ZZ", 180, 22)
	opts := Options{CacheSize: 20, WindowSize: 5}
	seq := New(ggsx.New(ds, ggsx.Options{}), opts)
	bat := New(ggsx.New(ds, ggsx.Options{}), opts)

	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = seq.Query(q.Graph).Answer
	}

	// Replay in batches of cycling sizes, including 1 and sizes
	// spanning window boundaries.
	sizes := []int{7, 1, 64, 3, 16}
	for i, si := 0, 0; i < len(queries); si++ {
		end := i + sizes[si%len(sizes)]
		if end > len(queries) {
			end = len(queries)
		}
		qs := make([]*graph.Graph, 0, end-i)
		for _, q := range queries[i:end] {
			qs = append(qs, q.Graph)
		}
		results := bat.QueryBatch(qs)
		if len(results) != len(qs) {
			t.Fatalf("QueryBatch returned %d results for %d queries", len(results), len(qs))
		}
		for k, res := range results {
			if !eq(res.Answer, want[i+k]) {
				t.Fatalf("query %d: batched answer %v != sequential %v", i+k, res.Answer, want[i+k])
			}
		}
		i = end
	}
	if sq, bq := seq.Totals().Queries, bat.Totals().Queries; sq != bq {
		t.Errorf("Totals().Queries: batched %d != sequential %d", bq, sq)
	}
}

// TestThreeEntryPointsOnePipeline pins what the separate single-query
// engine used to guarantee: the same seeded stream — sub- and supergraph
// method, an add, a remove and an edit on the way — driven as Query, as a
// QueryBatch of one and as a QueryBatchStream of one leaves identical
// answers, count statistics, totals (a batch of one is not a batch), cache
// contents and statistics rows (timings aside).
func TestThreeEntryPointsOnePipeline(t *testing.T) {
	drives := []struct {
		name string
		run  func(c *Cache, q *graph.Graph) Result
	}{
		{"Query", func(c *Cache, q *graph.Graph) Result { return c.Query(q) }},
		{"QueryBatch", func(c *Cache, q *graph.Graph) Result { return c.QueryBatch([]*graph.Graph{q})[0] }},
		{"QueryBatchStream", func(c *Cache, q *graph.Graph) (r Result) {
			if _, err := c.QueryBatchStream(context.Background(), []*graph.Graph{q}, func(_ int, res Result) { r = res }); err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	type outcome struct {
		results []Result
		totals  Totals
		cached  []int64
		rows    []EntryStats
	}
	for _, tc := range []struct {
		name  string
		mk    func(ds *dataset.Dataset) method.Method
		sizes []int
	}{
		{"subgraph", func(ds *dataset.Dataset) method.Method { return ggsx.New(ds, ggsx.Options{}) }, []int{4, 8, 12}},
		{"supergraph", func(ds *dataset.Dataset) method.Method { return method.NewSuperSI(ds, iso.VF2{}) }, []int{20, 30, 40}},
	} {
		var outs []outcome
		for _, d := range drives {
			ds := moleculeDataset(60, 21) // the stream mutates it: one copy per drive
			cfg, err := workload.TypeACategory("ZZ", 1.4, tc.sizes, 180)
			if err != nil {
				t.Fatal(err)
			}
			c := New(tc.mk(ds), Options{CacheSize: 20, WindowSize: 5})
			var out outcome
			for i, q := range workload.TypeA(ds, cfg, 22) {
				switch i {
				case 60:
					_, err = c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone(), ds.Graph(7).Clone()})
				case 100:
					_, err = c.RemoveGraphs([]int32{3, int32(ds.Len() - 1)})
				case 140:
					var u, v int32
					ds.Graph(5).Edges(func(a, b int32) { u, v = a, b })
					_, err = c.EditGraphEdges(5, []dataset.EdgeEdit{{U: u, V: v, Del: true}})
				}
				if err != nil {
					t.Fatal(err)
				}
				r := d.run(c, q.Graph)
				r.Stats.FilterMTime, r.Stats.FilterGCTime, r.Stats.VerifyTime = 0, 0, 0
				r.Stats.FeatureTime, r.Stats.ProbeTime, r.Stats.GCVerifyTime = 0, 0, 0
				out.results = append(out.results, r)
			}
			out.totals = c.Totals()
			out.totals.FilterMTime, out.totals.FilterGCTime, out.totals.VerifyTime, out.totals.MaintenanceTime = 0, 0, 0, 0
			out.cached = c.CachedSerials()
			out.rows = c.EntryStats()
			for i := range out.rows {
				out.rows[i].FilterNS, out.rows[i].VerifyNS = 0, 0 // wall clock
			}
			outs = append(outs, out)
		}
		want := outs[0]
		if want.totals.Batches != 0 || want.totals.ExactHits == 0 || want.totals.Mutations != 3 || len(want.cached) == 0 {
			t.Errorf("%s: stream exercised too little, or a batch of one was counted: %+v", tc.name, want.totals)
		}
		for k, got := range outs[1:] {
			name := drives[k+1].name
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("%s: %s answers or count statistics differ from Query", tc.name, name)
			}
			if got.totals != want.totals {
				t.Errorf("%s: %s totals differ:\n%+v\nQuery: %+v", tc.name, name, got.totals, want.totals)
			}
			if !reflect.DeepEqual(got.cached, want.cached) {
				t.Errorf("%s: %s cached %v, Query %v", tc.name, name, got.cached, want.cached)
			}
			if !reflect.DeepEqual(got.rows, want.rows) {
				t.Errorf("%s: %s statistics rows differ from Query", tc.name, name)
			}
		}
	}
}

// blockingFilterMethod is an SI method that records the query of every
// Filter call and, while block is set, parks the call on release,
// announcing it on entered.
type blockingFilterMethod struct {
	*method.SI
	mu       sync.Mutex
	filtered []*graph.Graph
	block    atomic.Bool
	entered  chan struct{}
	release  chan struct{}
}

func (m *blockingFilterMethod) Filter(q *graph.Graph) []int32 {
	m.mu.Lock()
	m.filtered = append(m.filtered, q)
	m.mu.Unlock()
	if m.block.Load() {
		m.entered <- struct{}{}
		<-m.release
	}
	return m.SI.Filter(q)
}

// takeFiltered returns the queries filtered since the last call.
func (m *blockingFilterMethod) takeFiltered() []*graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	qs := m.filtered
	m.filtered = nil
	return qs
}

// TestAllHitRunDoesNotWaitForFilter pins "no further processing" and
// "processing terminates" (§5.1) for every run shape. An exact hit never
// reaches Method M: a lone hit and an all-hit batch call Filter zero times,
// a mixed batch calls it once per query the lookup left open and for no
// other. The one run that still starts a filter it does not need — every
// open query proven empty by a cached empty answer — returns while that
// filter is still parked, and a mutation arriving meanwhile does not start
// until the filter has returned, because it holds its own gate reference.
func TestAllHitRunDoesNotWaitForFilter(t *testing.T) {
	ds := moleculeDataset(40, 41)
	m := &blockingFilterMethod{
		SI:      method.NewVF2Plus(ds),
		entered: make(chan struct{}, 1), // one parked Filter call below; the send never blocks
		release: make(chan struct{}),
	}
	c := New(m, Options{CacheSize: 10, WindowSize: 1})
	queries := typeAWorkload(ds, "UU", 4, 42)
	qs := make([]*graph.Graph, len(queries))
	for i, q := range queries {
		qs[i] = q.Graph
		c.Query(q.Graph) // W = 1: cached on return
	}
	// No dataset graph carries this label, so the single vertex is cached
	// with an empty answer and proves every query containing it empty.
	const absent = graph.Label(60000)
	c.Query(pathG(absent))
	m.takeFiltered()

	allHits := func(what string, rs []Result) {
		t.Helper()
		for i, r := range rs {
			if !r.Stats.ExactHit {
				t.Fatalf("%s: query %d was not an exact hit", what, i)
			}
		}
		if f := m.takeFiltered(); len(f) != 0 {
			t.Fatalf("%s called Method M's filter %d times, want 0", what, len(f))
		}
	}
	allHits("a lone exact hit", []Result{c.Query(qs[0])})
	allHits("an all-hit batch", c.QueryBatch(qs[1:]))

	// Two queries the cache has never seen, among three it holds.
	fresh := typeAWorkload(ds, "UU", 2, 43)
	fresh1, fresh2 := fresh[0].Graph, fresh[1].Graph
	for i, r := range c.QueryBatch([]*graph.Graph{qs[0], fresh1, qs[1], fresh2, qs[2]}) {
		if r.Stats.ExactHit != (i%2 == 0) {
			t.Fatalf("mixed batch: query %d: exact hit = %v", i, r.Stats.ExactHit)
		}
	}
	if f := m.takeFiltered(); len(f) != 2 || !(f[0] == fresh1 && f[1] == fresh2 || f[0] == fresh2 && f[1] == fresh1) {
		t.Fatalf("mixed batch: Method M filtered %d queries, want exactly the two the lookup left open", len(f))
	}

	m.block.Store(true)
	shortcut := make(chan Result, 1)
	go func() { shortcut <- c.Query(pathG(absent, absent)) }()
	select {
	case r := <-shortcut:
		if !r.Stats.EmptyShortcut || len(r.Answer) != 0 {
			t.Fatalf("the query containing a cached empty-answer query was not shortcut: %+v", r.Stats)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an empty-answer shortcut waited for the blocked filter")
	}
	select {
	case <-m.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the shortcut run never started Method M's filter — the early return was tested vacuously")
	}

	mutated := make(chan error, 1)
	go func() {
		_, err := c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone()})
		mutated <- err
	}()
	for !c.mutating.Load() { // the mutation has closed the gate and is draining
		time.Sleep(100 * time.Microsecond)
	}
	if c.inflight.Load() == 0 || ds.Epoch() != 0 {
		t.Fatalf("mutation got past the gate with the filter still running: inflight %d, epoch %d", c.inflight.Load(), ds.Epoch())
	}
	close(m.release)
	if err := <-mutated; err != nil {
		t.Fatal(err)
	}
	if ds.Epoch() != 1 {
		t.Fatalf("dataset epoch = %d after the mutation, want 1", ds.Epoch())
	}
}

// TestQueryBatchHitsSpecialCases warms a cache, then replays the same
// workload as one batch: exact-match shortcuts must fire inside the batch
// and the answers must still equal the baseline.
func TestQueryBatchHitsSpecialCases(t *testing.T) {
	ds := moleculeDataset(50, 23)
	queries := typeAWorkload(ds, "ZZ", 60, 24)
	base := method.NewVF2Plus(ds)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 40, WindowSize: 5})

	qs := make([]*graph.Graph, len(queries))
	for i, q := range queries {
		qs[i] = q.Graph
	}
	c.QueryBatch(qs) // warm: fills cache through whole windows
	results := c.QueryBatch(qs)
	hits := 0
	for i, res := range results {
		if !eq(res.Answer, method.Answer(base, qs[i])) {
			t.Fatalf("query %d: batched answer diverged from the method baseline", i)
		}
		if res.Stats.ExactHit {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no exact-match hits on an identical repeated batch")
	}
	if tot := c.Totals(); tot.ExactHits == 0 {
		t.Errorf("Totals().ExactHits = %d, want > 0", tot.ExactHits)
	}
	// Exact hits are duplicates and must skip the Window; the statistics
	// rows must stay consistent for everything still cached.
	c.Flush()
	checkEntryStats(t, c)
}

// TestQueryBatchConcurrent drives several goroutines through QueryBatch
// (and interleaved single Query calls) on one shared cache; every
// answer must match the serial method baseline. With -race this is the
// batch path's concurrency soundness check.
func TestQueryBatchConcurrent(t *testing.T) {
	const callers = 6
	ds := moleculeDataset(50, 25)
	queries := typeAWorkload(ds, "ZZ", 240, 26)
	base := method.NewVF2Plus(ds)

	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = method.Answer(base, q.Graph)
	}

	c := New(ggsx.New(ds, ggsx.Options{}), Options{
		CacheSize:  20,
		WindowSize: 5,
	})
	chunk := (len(queries) + callers - 1) / callers
	var wg sync.WaitGroup
	var mu sync.Mutex
	var mismatches int
	for w := 0; w < callers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi, w int) {
			defer wg.Done()
			if w%2 == 0 {
				qs := make([]*graph.Graph, 0, hi-lo)
				for _, q := range queries[lo:hi] {
					qs = append(qs, q.Graph)
				}
				for k, res := range c.QueryBatch(qs) {
					if !eq(res.Answer, want[lo+k]) {
						mu.Lock()
						mismatches++
						mu.Unlock()
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					if !eq(c.Query(queries[i].Graph).Answer, want[i]) {
						mu.Lock()
						mismatches++
						mu.Unlock()
					}
				}
			}
		}(lo, hi, w)
	}
	wg.Wait()
	c.Flush()
	if mismatches > 0 {
		t.Fatalf("%d of %d concurrent batched answers diverged from the baseline", mismatches, len(queries))
	}
	if got := c.Totals().Queries; got != int64(len(queries)) {
		t.Errorf("Totals().Queries = %d, want %d", got, len(queries))
	}
}

// TestQueryBatchEdgeCases pins the degenerate inputs: the empty batch, the
// single-query batch and batches holding tiny graphs with no path features.
func TestQueryBatchEdgeCases(t *testing.T) {
	ds := moleculeDataset(30, 27)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 4})

	if res := c.QueryBatch(nil); res != nil {
		t.Errorf("QueryBatch(nil) = %v, want nil", res)
	}

	queries := typeAWorkload(ds, "UU", 6, 28)
	one := c.QueryBatch([]*graph.Graph{queries[0].Graph})
	if len(one) != 1 || !eq(one[0].Answer, method.Answer(method.NewVF2(ds), queries[0].Graph)) {
		t.Fatalf("single-query batch diverged from the baseline")
	}

	// A single-vertex query has path features of length one only; a batch
	// mixing it with ordinary queries must still answer soundly.
	single := graph.NewBuilder().SetID(-1)
	single.AddVertex(ds.Graph(0).Label(0))
	sg := single.MustBuild()
	batch := []*graph.Graph{sg, queries[1].Graph, queries[2].Graph}
	results := c.QueryBatch(batch)
	vf2 := method.NewVF2(ds)
	for i, res := range results {
		if !eq(res.Answer, method.Answer(vf2, batch[i])) {
			t.Fatalf("mixed batch query %d diverged from the baseline", i)
		}
	}
}
