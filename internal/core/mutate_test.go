package core

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/ctindex"
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

func mutateFixture(tb testing.TB, opts Options) (*Cache, *method.SI, []workload.Query) {
	tb.Helper()
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
	m := method.NewVF2Plus(ds)
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 80)
	if err != nil {
		tb.Fatal(err)
	}
	qs := workload.TypeA(ds, cfg, 62)
	c := New(m, opts)
	for _, q := range qs {
		c.Query(q.Graph)
	}
	return c, m, qs
}

// requireSound re-runs every query against both the cache and the bare
// method over the current dataset; any divergence is a soundness bug.
func requireSound(t *testing.T, c *Cache, m method.Method, qs []workload.Query, when string) {
	t.Helper()
	for i, q := range qs {
		got := c.Query(q.Graph).Answer
		want := method.Answer(m, q.Graph)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d: cache answered %v, method answered %v", when, i, got, want)
		}
	}
}

// exclusionMethod is an SI method that counts every Filter and Verify
// call that overlaps ApplyDatasetMutation, whichever starts first. The
// atomics are sequentially consistent, so of a call and a mutation that
// overlap, at least one sees the other.
type exclusionMethod struct {
	*method.SI
	calls    atomic.Int64 // Filter and Verify calls in progress
	mutating atomic.Bool
	overlaps atomic.Int64
}

func (m *exclusionMethod) call() func() {
	m.calls.Add(1)
	if m.mutating.Load() {
		m.overlaps.Add(1)
	}
	return func() { m.calls.Add(-1) }
}

func (m *exclusionMethod) Filter(q *graph.Graph) []int32 {
	defer m.call()()
	return m.SI.Filter(q)
}

func (m *exclusionMethod) Verify(q *graph.Graph, id int32) bool {
	defer m.call()()
	return m.SI.Verify(q, id)
}

func (m *exclusionMethod) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	m.mutating.Store(true)
	if m.calls.Load() != 0 {
		m.overlaps.Add(1)
	}
	runtime.Gosched() // hold the window open for a call to start in
	m.SI.ApplyDatasetMutation(added, edited, removed)
	m.mutating.Store(false)
}

// TestMutationExcludesMethodCalls races four querying goroutines, singles
// and batches, against a stream of adds, removes and edits. No call into
// Method M may overlap a mutation of its structures — the cache's own
// repair verifications run after the method's update, inside the
// mutation — and afterwards every answer equals the method's over the
// final dataset.
func TestMutationExcludesMethodCalls(t *testing.T) {
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(71)
	m := &exclusionMethod{SI: method.NewVF2Plus(ds)}
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 40)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.TypeA(ds, cfg, 72)
	c := New(m, Options{CacheSize: 15, WindowSize: 4, VerifyConcurrency: 2})

	var stop atomic.Bool
	var wg sync.WaitGroup
	var runs atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				if w%2 == 0 {
					c.Query(qs[rng.Intn(len(qs))].Graph)
				} else {
					c.QueryBatch([]*graph.Graph{qs[rng.Intn(len(qs))].Graph, qs[rng.Intn(len(qs))].Graph})
				}
				runs.Add(1)
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(73))
	for step := 0; step < 30; step++ {
		ids := ds.AllIDs()
		id := ids[rng.Intn(len(ids))]
		switch step % 3 {
		case 0:
			_, err = c.AddGraphs([]*graph.Graph{ds.Graph(id).Clone()})
		case 1:
			_, err = c.RemoveGraphs([]int32{id})
		default:
			var u, v int32
			n := 0
			ds.Graph(id).Edges(func(a, b int32) { u, v, n = a, b, n+1 })
			if n < 2 {
				continue // deleting the last edge risks an empty graph
			}
			_, err = c.EditGraphEdges(id, []dataset.EdgeEdit{{U: u, V: v, Del: true}})
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := m.overlaps.Load(); n != 0 {
		t.Errorf("%d Method M calls overlapped a mutation of its structures", n)
	}
	if runs.Load() == 0 {
		t.Fatal("no query ran beside the mutations")
	}
	if got := c.Totals().Mutations; got == 0 {
		t.Fatal("no mutation was applied")
	}
	requireSound(t, c, m, qs, "after the race")
}

// TestMutationAddExtendsAnswers: adding graphs that match cached queries
// must extend their answer sets without a full invalidation.
func TestMutationAddExtendsAnswers(t *testing.T) {
	opts := Options{CacheSize: 20, WindowSize: 4}
	c, m, qs := mutateFixture(t, opts)
	before := len(c.CachedSerials())
	if before == 0 {
		t.Fatal("fixture cached nothing")
	}

	// Supergraphs of existing dataset members necessarily contain any
	// cached query those members answer; cloned dataset graphs guarantee
	// at least self-matches for queries mined from them.
	ds := m.Dataset()
	adds := []*graph.Graph{ds.Graph(0).Clone(), ds.Graph(5).Clone()}
	res, err := c.AddGraphs(adds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || len(res.AddedIDs) != 2 {
		t.Fatalf("add not applied: %+v", res)
	}
	if res.Epoch != 1 {
		t.Errorf("epoch after first mutation = %d, want 1", res.Epoch)
	}
	if got := len(c.CachedSerials()); got != before {
		t.Errorf("addition changed entry count %d -> %d; additions must never evict", before, got)
	}
	if res.Extended == 0 {
		t.Error("cloned dataset graphs extended no cached answers")
	}
	requireSound(t, c, m, qs, "after add")
}

// TestMutationRemoveInvalidatesAnswers: removal strips the removed IDs
// from every cached answer set, exactly.
func TestMutationRemoveInvalidatesAnswers(t *testing.T) {
	opts := Options{CacheSize: 20, WindowSize: 4}
	c, m, qs := mutateFixture(t, opts)

	// Remove a graph that appears in at least one cached answer.
	var victim int32 = -1
	for _, s := range c.CachedSerials() {
		if _, a, ok := c.CachedEntry(s); ok && len(a) > 0 {
			victim = a[0]
			break
		}
	}
	if victim < 0 {
		t.Skip("no cached entry with a non-empty answer")
	}
	res, err := c.RemoveGraphs([]int32{victim})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || len(res.RemovedIDs) != 1 {
		t.Fatalf("remove not applied: %+v", res)
	}
	if res.Invalidated == 0 {
		t.Error("removing an answered graph invalidated no entries")
	}
	for _, s := range c.CachedSerials() {
		if _, a, ok := c.CachedEntry(s); ok {
			for _, id := range a {
				if id == victim {
					t.Fatalf("entry %d still answers removed graph %d", s, victim)
				}
			}
		}
	}
	requireSound(t, c, m, qs, "after remove")
}

// TestMutationEdgeEditReverifies: an edge edit re-verifies affected
// entries; answers stay exactly equal to a fresh evaluation.
func TestMutationEdgeEditReverifies(t *testing.T) {
	opts := Options{CacheSize: 20, WindowSize: 4}
	c, m, qs := mutateFixture(t, opts)

	ds := m.Dataset()
	g := ds.Graph(2)
	// Delete one existing edge.
	var eu, ev int32 = -1, -1
	g.Edges(func(u, v int32) {
		if eu < 0 {
			eu, ev = u, v
		}
	})
	if eu < 0 {
		t.Skip("graph 2 has no edges")
	}
	res, err := c.EditGraphEdges(2, []dataset.EdgeEdit{{U: eu, V: ev, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatalf("edit not applied: %+v", res)
	}
	if ds.Graph(2).HasEdge(eu, ev) {
		t.Fatal("edge survived the edit")
	}
	requireSound(t, c, m, qs, "after edge delete")

	// Re-insert it.
	if _, err := c.EditGraphEdges(2, []dataset.EdgeEdit{{U: eu, V: ev}}); err != nil {
		t.Fatal(err)
	}
	requireSound(t, c, m, qs, "after edge re-insert")
}

// TestMutationSeqIdempotent: replaying a mutation with an already-applied
// sequence number is a no-op acknowledged with Applied=false.
func TestMutationSeqIdempotent(t *testing.T) {
	c, m, _ := mutateFixture(t, Options{CacheSize: 10, WindowSize: 4})
	ds := m.Dataset()
	mut := dataset.Mutation{Op: dataset.OpAdd, Graphs: []*graph.Graph{ds.Graph(0).Clone()}, Seq: 7}
	res1, err := c.ApplyMutation(mut)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Applied || res1.Seq != 7 {
		t.Fatalf("first apply: %+v", res1)
	}
	lenAfter := ds.Len()
	// Same seq again — even with different payload, it must not re-apply.
	res2, err := c.ApplyMutation(dataset.Mutation{Op: dataset.OpAdd, Graphs: []*graph.Graph{ds.Graph(1).Clone()}, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Applied {
		t.Fatal("duplicate seq was re-applied")
	}
	if ds.Len() != lenAfter {
		t.Fatalf("duplicate seq grew the dataset %d -> %d", lenAfter, ds.Len())
	}
	if got := c.LastMutationSeq(); got != 7 {
		t.Errorf("LastMutationSeq = %d, want 7", got)
	}
}

// TestValidateMutation enumerates malformed mutations; each must be
// rejected before any state changes.
func TestValidateMutation(t *testing.T) {
	c, m, _ := mutateFixture(t, Options{CacheSize: 10, WindowSize: 4})
	ds := m.Dataset()
	epoch := ds.Epoch()
	for name, mut := range map[string]dataset.Mutation{
		"bad op":           {Op: 0},
		"add nothing":      {Op: dataset.OpAdd},
		"add nil graph":    {Op: dataset.OpAdd, Graphs: []*graph.Graph{nil}},
		"remove nothing":   {Op: dataset.OpRemove},
		"remove dead id":   {Op: dataset.OpRemove, IDs: []int32{int32(ds.Len() + 5)}},
		"edit no target":   {Op: dataset.OpEdit, Graphs: []*graph.Graph{ds.Graph(0).Clone()}, IDs: nil},
		"edit dead target": {Op: dataset.OpEdit, Graphs: []*graph.Graph{ds.Graph(0).Clone()}, IDs: []int32{9999}},
		"edit wrong shape": {Op: dataset.OpEdit, Graphs: []*graph.Graph{ds.Graph(0).Clone()}, IDs: []int32{1}},
		"edit graph count": {Op: dataset.OpEdit, Graphs: nil, IDs: []int32{0}},
	} {
		if _, err := c.ApplyMutation(mut); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if ds.Epoch() != epoch {
		t.Errorf("rejected mutations advanced the epoch %d -> %d", epoch, ds.Epoch())
	}
}

// TestMutationResultCounts: each applied mutation's MutationResult, its
// one record, carries the epoch it reached, and Totals counts it once.
func TestMutationResultCounts(t *testing.T) {
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
	m := method.NewVF2Plus(ds)
	c := New(m, Options{CacheSize: 10, WindowSize: 4})
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.TypeA(ds, cfg, 62) {
		c.Query(q.Graph)
	}
	add, err := c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone()})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := c.RemoveGraphs([]int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if !add.Applied || !rm.Applied {
		t.Fatalf("applied %v, %v; want both", add.Applied, rm.Applied)
	}
	if add.Epoch != 1 || rm.Epoch != 2 {
		t.Errorf("result epochs %d, %d, want 1, 2", add.Epoch, rm.Epoch)
	}
	if add.Duration <= 0 || rm.Duration <= 0 {
		t.Errorf("result durations %v, %v, want both positive", add.Duration, rm.Duration)
	}
	if c.Totals().Mutations != 2 {
		t.Errorf("Totals.Mutations = %d, want 2", c.Totals().Mutations)
	}
}

// TestMutationStaticMethodRejected: mutations require a DynamicMethod.
type staticMethod struct{ method.Method }

func (staticMethod) Name() string { return "static-wrapper" }

func TestMutationStaticMethodRejected(t *testing.T) {
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
	c := New(staticMethod{method.NewVF2Plus(ds)}, Options{CacheSize: 5, WindowSize: 2})
	_, err := c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone()})
	if !errors.Is(err, ErrStaticMethod) {
		t.Fatalf("err = %v, want ErrStaticMethod", err)
	}
}

// TestMutationPropertyRandomised drives a random interleaving of
// queries, additions, removals and edge edits, then checks every answer
// byte-identical to a fresh cache built over the final dataset — the
// satellite property test, over two random schedules (and under -race in
// CI), each run over an index-free method (VF2+) and an indexed one
// (CT-Index, whose fingerprints the mutations must keep in step). Shards1
// keeps the name it had when the cache could be split into shards: one
// shard was the single store the cache now is.
func TestMutationPropertyRandomised(t *testing.T) {
	for _, sched := range []struct {
		name string
		seed int64
	}{{"Shards1", 4001}, {"Seed4004", 4004}} {
		t.Run(sched.name, func(t *testing.T) {
			for _, mk := range []struct {
				name string
				new  func(*dataset.Dataset) method.Method
			}{
				{"VF2+", func(ds *dataset.Dataset) method.Method { return method.NewVF2Plus(ds) }},
				{"CT-Index", func(ds *dataset.Dataset) method.Method { return ctindex.New(ds, ctindex.Options{}) }},
			} {
				t.Run(mk.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(sched.seed))
					ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
					m := mk.new(ds)
					cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 60)
					if err != nil {
						t.Fatal(err)
					}
					qs := workload.TypeA(ds, cfg, 62)
					c := New(m, Options{CacheSize: 15, WindowSize: 4})

					liveIDs := func() []int32 { return ds.AllIDs() }
					for step := 0; step < 120; step++ {
						switch k := rng.Intn(10); {
						case k < 6: // query
							q := qs[rng.Intn(len(qs))]
							got := c.Query(q.Graph).Answer
							want := method.Answer(m, q.Graph)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d: query diverged: %v != %v", step, got, want)
							}
						case k < 7: // add 1-2 graphs (clones of live members)
							ids := liveIDs()
							n := 1 + rng.Intn(2)
							gs := make([]*graph.Graph, 0, n)
							for i := 0; i < n; i++ {
								gs = append(gs, ds.Graph(ids[rng.Intn(len(ids))]).Clone())
							}
							if _, err := c.AddGraphs(gs); err != nil {
								t.Fatalf("step %d: add: %v", step, err)
							}
						case k < 8: // remove 1-2 live graphs
							ids := liveIDs()
							if len(ids) < 10 {
								continue // keep the dataset non-trivial
							}
							n := 1 + rng.Intn(2)
							rm := make([]int32, 0, n)
							for i := 0; i < n; i++ {
								rm = append(rm, ids[rng.Intn(len(ids))])
							}
							if _, err := c.RemoveGraphs(rm); err != nil {
								t.Fatalf("step %d: remove: %v", step, err)
							}
						default: // edge edit: delete a random edge, or re-insert one
							ids := liveIDs()
							id := ids[rng.Intn(len(ids))]
							g := ds.Graph(id)
							type edge struct{ u, v int32 }
							var edges []edge
							g.Edges(func(u, v int32) { edges = append(edges, edge{u, v}) })
							if len(edges) < 2 {
								continue // deleting the last edge risks an empty graph
							}
							e := edges[rng.Intn(len(edges))]
							if _, err := c.EditGraphEdges(id, []dataset.EdgeEdit{{U: e.u, V: e.v, Del: true}}); err != nil {
								t.Fatalf("step %d: edge delete: %v", step, err)
							}
							if rng.Intn(2) == 0 { // sometimes put it back
								if _, err := c.EditGraphEdges(id, []dataset.EdgeEdit{{U: e.u, V: e.v}}); err != nil {
									t.Fatalf("step %d: edge re-insert: %v", step, err)
								}
							}
						}
					}

					// Final exhaustive check against a *fresh* cache over a fresh
					// method on the final dataset: the mutated cache and the cold
					// cache must answer every workload query byte-identically, so
					// an index the mutations left stale shows here.
					cold := New(mk.new(ds), Options{CacheSize: 15, WindowSize: 4})
					for i, q := range qs {
						warm := c.Query(q.Graph).Answer
						coldA := cold.Query(q.Graph).Answer
						if !reflect.DeepEqual(warm, coldA) {
							t.Fatalf("final query %d: mutated cache %v != cold cache %v", i, warm, coldA)
						}
					}
				})
			}
		})
	}
}

// TestMutationSupergraphAddExtendsCachedAnswer: in supergraph mode a
// cached query's answer holds the dataset graphs it contains, so adding a
// graph the query strictly contains (the query less one edge) must extend
// that answer, and the next exact hit must serve the extended one.
func TestMutationSupergraphAddExtendsCachedAnswer(t *testing.T) {
	ds := moleculeDataset(40, 63)
	m := method.NewSuperSI(ds, iso.VF2{})
	c := New(m, Options{WindowSize: 1})
	q := ds.Graph(0).Clone()
	c.Query(q)
	c.Flush()
	if len(c.CachedSerials()) != 1 {
		t.Fatalf("the query was not cached: %d entries", len(c.CachedSerials()))
	}

	b := graph.NewBuilder()
	for v := range q.NumVertices() {
		b.AddVertex(q.Label(int32(v)))
	}
	dropped := false
	q.Edges(func(u, v int32) {
		if dropped {
			b.AddEdge(u, v)
		}
		dropped = true
	})
	if _, err := c.AddGraphs([]*graph.Graph{b.MustBuild()}); err != nil {
		t.Fatal(err)
	}

	r := c.Query(q)
	if want := method.Answer(m, q); !eq(r.Answer, want) {
		t.Errorf("after adding the query less one edge: answer %v, want %v (exact hit %v)", r.Answer, want, r.Stats.ExactHit)
	}
}
