package ggsx

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

func randomGraph(r *rand.Rand, n, labels int, p float64) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.MustBuild()
}

func randomDataset(r *rand.Rand, count, n, labels int, p float64) *dataset.Dataset {
	gs := make([]*graph.Graph, count)
	for i := range gs {
		gs[i] = randomGraph(r, 2+r.Intn(n), labels, p)
	}
	return dataset.New(gs)
}

func path(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		b.AddEdge(int32(i-1), int32(i))
	}
	return b.MustBuild()
}

func TestFilterExactExamples(t *testing.T) {
	ds := dataset.New([]*graph.Graph{
		path(1, 2, 3), // 0: contains path 1-2
		path(1, 3),    // 1: no 1-2 edge
		path(2, 1),    // 2: contains 1-2
	})
	idx := New(ds, Options{})
	got := idx.Filter(path(1, 2))
	want := []int32{0, 2}
	if len(got) != len(want) || got[0] != 0 || got[1] != 2 {
		t.Errorf("Filter(1-2) = %v, want %v", got, want)
	}
	// Feature absent from the whole dataset: empty candidate set.
	if got := idx.Filter(path(9, 9)); len(got) != 0 {
		t.Errorf("Filter(9-9) = %v, want empty", got)
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 15, 9, 3, 0.3)
		idx := New(ds, Options{MaxPathLen: 3})
		q := randomGraph(r, 2+r.Intn(4), 3, 0.5)
		inCS := make(map[int32]bool)
		for _, id := range idx.Filter(q) {
			inCS[id] = true
		}
		for _, g := range ds.Graphs() {
			if iso.Contains(iso.VF2{}, q, g) && !inCS[g.ID()] {
				t.Logf("seed %d: filter dropped true answer %d", seed, g.ID())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestAnswerMatchesSIScan(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ds := randomDataset(r, 20, 10, 3, 0.3)
	idx := New(ds, Options{})
	si := method.NewVF2(ds)
	for i := 0; i < 30; i++ {
		q := randomGraph(r, 2+r.Intn(5), 3, 0.4)
		got := method.Answer(idx, q)
		want := method.Answer(si, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: ggsx answer %v != si answer %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d: ggsx answer %v != si answer %v", i, got, want)
			}
		}
	}
}

func TestFilterReducesCandidates(t *testing.T) {
	// With diverse labels the filter must do real work: a query using a
	// label pair present in only one graph yields exactly that graph.
	ds := dataset.New([]*graph.Graph{
		path(1, 2, 3, 4),
		path(5, 6, 7, 8),
		path(9, 10, 11, 12),
	})
	idx := New(ds, Options{})
	got := idx.Filter(path(5, 6))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Filter(5-6) = %v, want [1]", got)
	}
}

func TestMethodInterface(t *testing.T) {
	ds := dataset.New([]*graph.Graph{path(1, 2)})
	idx := New(ds, Options{})
	if idx.Name() != "ggsx" {
		t.Errorf("Name = %q", idx.Name())
	}
	if idx.Mode() != method.ModeSubgraph {
		t.Error("ggsx must be a subgraph method")
	}
	if idx.Dataset() != ds {
		t.Error("Dataset accessor broken")
	}
	if !idx.Verify(path(1, 2), 0) {
		t.Error("Verify(P(1,2), 0) must hold")
	}
	if idx.Verify(path(2, 2), 0) {
		t.Error("Verify(P(2,2), 0) must fail")
	}
	if len(idx.flattened().Feats) == 0 {
		t.Error("index must have features")
	}
}

func TestCountSensitiveFiltering(t *testing.T) {
	// Graph 0 has one 1-1 edge; graph 1 has two disjoint 1-1 edges. A query
	// needing two 1-1 edges must filter out graph 0 by count domination.
	b := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex(1)
	}
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	twoEdges := b.MustBuild()
	ds := dataset.New([]*graph.Graph{path(1, 1), twoEdges.Clone()})
	idx := New(ds, Options{})
	got := idx.Filter(twoEdges)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("count-domination filter failed: got %v, want [1]", got)
	}
}

// referenceFilter is the definition FilterVector must agree with: a scan
// of every live graph keeping those whose feature counts dominate the
// query's, over the map representation the index no longer uses.
func referenceFilter(ds *dataset.Dataset, opts Options, q *graph.Graph) []int32 {
	opts = opts.withDefaults()
	qc := pathfeat.SimplePaths(q, opts.MaxPathLen)
	var out []int32
	for _, g := range ds.Graphs() {
		if g == nil {
			continue
		}
		if dominates(pathfeat.SimplePaths(g, opts.MaxPathLen), qc) {
			out = append(out, g.ID())
		}
	}
	return out
}

// dominates reports whether every feature of want occurs in have at least
// as often.
func dominates(have, want pathfeat.Counts) bool {
	for k, c := range want {
		if have[k] < c {
			return false
		}
	}
	return true
}

// subgraphOf returns a random connected piece of g — a query with at
// least one answer.
func subgraphOf(r *rand.Rand, g *graph.Graph, maxV int) *graph.Graph {
	order := g.BFSOrder(int32(r.Intn(g.NumVertices())))
	order = order[:min(len(order), maxV)]
	sub, _, err := g.InducedSubgraph(order)
	if err != nil {
		panic(err)
	}
	return sub
}

// testQueries mixes queries cut from the dataset (hit-heavy), free random
// ones (mostly no answer), a single vertex and the empty graph.
func testQueries(r *rand.Rand, ds *dataset.Dataset, n, labels int) []*graph.Graph {
	qs := []*graph.Graph{graph.NewBuilder().MustBuild(), path(0)}
	live := ds.AllIDs()
	for len(qs) < n {
		if len(live) > 0 && r.Intn(2) == 0 {
			qs = append(qs, subgraphOf(r, ds.Graph(live[r.Intn(len(live))]), 1+r.Intn(6)))
		} else {
			qs = append(qs, randomGraph(r, 1+r.Intn(6), labels, 0.4))
		}
	}
	return qs
}

func TestFilterMatchesReferenceScan(t *testing.T) {
	for _, opts := range []Options{{}, {MaxPathLen: 2}, {MaxPathLen: 3}} {
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			ds := randomDataset(r, 30, 10, 3, 0.3)
			idx := New(ds, opts)
			for i, q := range testQueries(r, ds, 25, 3) {
				got, want := idx.Filter(q), referenceFilter(ds, opts, q)
				if !slices.Equal(got, want) {
					t.Fatalf("%+v seed %d query %d: Filter = %v, reference scan = %v", opts, seed, i, got, want)
				}
			}
		}
	}
}

// TestCollidingFeatureIDsLoseNoAnswer builds the index from vectors whose
// IDs were folded onto a handful of values, so unrelated paths share
// columns with summed counts: the filter gets weaker, never wrong.
func TestCollidingFeatureIDsLoseNoAnswer(t *testing.T) {
	fold := func(k pathfeat.Key) uint64 { return uint64(len(k)+int(k[len(k)-1])) % 5 }
	folded := func(g *graph.Graph) pathfeat.Vector {
		return pathfeat.VectorOfIDs(pathfeat.SimplePaths(g, 4), fold)
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 30, 10, 3, 0.3)
		idx := &Index{ds: ds, opts: Options{}.withDefaults(), algo: iso.VF2{}}
		var rows []pathfeat.Row
		for _, g := range ds.Graphs() {
			rows = append(rows, pathfeat.Row{ID: g.ID(), Vec: folded(g)})
		}
		idx.main = pathfeat.Build(rows)
		if len(idx.flattened().Feats) > 5 {
			t.Fatalf("folded index has %d columns, want ≤ 5", len(idx.flattened().Feats))
		}
		for i, q := range testQueries(r, ds, 25, 3) {
			cs := idx.FilterVector(folded(q))
			for _, g := range ds.Graphs() {
				if iso.Contains(iso.VF2{}, q, g) && !slices.Contains(cs, g.ID()) {
					t.Fatalf("seed %d query %d: colliding IDs dropped true answer %d", seed, i, g.ID())
				}
			}
		}
	}
}

// equalsFreshBuild reports how idx differs from a fresh build over its
// dataset ("" if it does not): the flattened index — what a compaction
// would make of the main columns, the tombstones and the delta — must be
// the fresh build's columns, array for array, and Filter must return the
// fresh build's candidates for every query of qs, and no removed ID.
func equalsFreshBuild(idx *Index, qs []*graph.Graph) string {
	fresh := New(idx.ds, idx.opts)
	flat := idx.flattened()
	for _, eq := range []bool{
		slices.Equal(flat.Feats, fresh.main.Feats), slices.Equal(flat.Ends, fresh.main.Ends),
		slices.Equal(flat.IDs, fresh.main.IDs), slices.Equal(flat.Counts, fresh.main.Counts),
	} {
		if !eq {
			return fmt.Sprintf("flattened index differs from a fresh build (%d columns, fresh %d)",
				len(flat.Feats), len(fresh.main.Feats))
		}
	}
	for i, q := range qs {
		got, want := idx.Filter(q), fresh.Filter(q)
		if !slices.Equal(got, want) {
			return fmt.Sprintf("query %d: Filter = %v, fresh build %v", i, got, want)
		}
		for _, id := range got {
			if !idx.ds.Alive(id) {
				return fmt.Sprintf("query %d: Filter returned removed id %d", i, id)
			}
		}
	}
	return ""
}

// TestIndexEqualsRebuildUnderMutation drives one index through a long
// seeded mutation history, across many compactions, and checks after
// every step that it equals a fresh build over the resulting dataset
// (equalsFreshBuild).
func TestIndexEqualsRebuildUnderMutation(t *testing.T) {
	for _, opts := range []Options{{MaxPathLen: 3}, {MaxPathLen: 2}} {
		r := rand.New(rand.NewSource(31))
		ds := randomDataset(r, 25, 9, 3, 0.3)
		idx := New(ds, opts)
		var withDelta, withDead, compact int
		check := func(step int, what string) {
			t.Helper()
			if diff := equalsFreshBuild(idx, testQueries(r, ds, 6, 3)); diff != "" {
				t.Fatalf("%+v step %d (%s): %s", opts, step, what, diff)
			}
			if len(idx.delta.IDs) > 0 {
				withDelta++
			}
			if idx.deadPostings > 0 {
				withDead++
			}
			if len(idx.delta.IDs) == 0 && idx.deadPostings == 0 {
				compact++
			}
		}
		randomLive := func() int32 { live := ds.AllIDs(); return live[r.Intn(len(live))] }
		for step := 0; step < 240; step++ {
			switch op := r.Intn(6); {
			case op == 0 || ds.Live() < 5: // add one or two
				gs := []*graph.Graph{randomGraph(r, 2+r.Intn(9), 3, 0.3)}
				if r.Intn(2) == 0 {
					gs = append(gs, randomGraph(r, 2+r.Intn(9), 4, 0.3))
				}
				ds.AddGraphs(gs)
				idx.ApplyDatasetMutation(gs, nil, nil)
				check(step, "add")
			case op == 1: // add, then remove what was added: the index is back where it was
				before := len(idx.flattened().Feats)
				gs := []*graph.Graph{randomGraph(r, 2+r.Intn(9), 7, 0.3)}
				ids := ds.AddGraphs(gs)
				idx.ApplyDatasetMutation(gs, nil, nil)
				ds.RemoveGraphs(ids)
				idx.ApplyDatasetMutation(nil, nil, ids)
				if got := len(idx.flattened().Feats); got != before {
					t.Fatalf("%+v step %d: %d columns after add→remove, was %d", opts, step, got, before)
				}
				check(step, "add→remove")
			case op == 2: // remove the highest live id
				live := ds.AllIDs()
				gone := ds.RemoveGraphs(live[len(live)-1:])
				idx.ApplyDatasetMutation(nil, nil, gone)
				check(step, "remove highest")
			case op == 3: // remove a few, with a replacement arriving in the same mutation
				gone := ds.RemoveGraphs([]int32{randomLive(), randomLive()})
				gs := []*graph.Graph{randomGraph(r, 2+r.Intn(9), 3, 0.3)}
				ds.AddGraphs(gs)
				idx.ApplyDatasetMutation(gs, nil, gone)
				check(step, "remove+add")
			case op == 4: // edit down to a single vertex: most of its features go
				g, err := ds.Replace(randomLive(), path(graph.Label(r.Intn(3))))
				if err != nil {
					t.Fatal(err)
				}
				idx.ApplyDatasetMutation(nil, []*graph.Graph{g}, nil)
				check(step, "shrinking edit")
			default: // edit to unrelated content
				g, err := ds.Replace(randomLive(), randomGraph(r, 2+r.Intn(9), 3, 0.4))
				if err != nil {
					t.Fatal(err)
				}
				idx.ApplyDatasetMutation(nil, []*graph.Graph{g}, nil)
				check(step, "edit")
			}
		}
		// A snapshot load replaces local history wholesale: the dataset
		// jumps to another generation — a shorter one here, so the index
		// holds IDs past its end — and every ID is re-asserted the way
		// core's resyncMethod does it.
		other := randomGraph(r, 6, 3, 0.4)
		other.SetID(int32(ds.BaseLen()))
		if err := ds.Restore([]int32{2}, []*graph.Graph{other}, 1); err != nil {
			t.Fatal(err)
		}
		var added, edited []*graph.Graph
		var removed []int32
		for id, g := range ds.Graphs() {
			switch {
			case g == nil:
				removed = append(removed, int32(id))
			case id >= ds.BaseLen():
				added = append(added, g)
			default:
				edited = append(edited, g)
			}
		}
		idx.ApplyDatasetMutation(added, edited, removed)
		check(240, "restore")
		idx.ApplyDatasetMutation(added, edited, removed)
		check(241, "restore, repeated")
		if withDelta < 20 || withDead < 20 || compact < 20 {
			t.Errorf("%+v: %d steps left a delta, %d tombstones and %d a compact index; the history must exercise all three",
				opts, withDelta, withDead, compact)
		}
	}
}

// TestFilterVectorAllocations: a filter over an extracted vector allocates
// its column scratch and its result, nothing per feature or per graph.
func TestFilterVectorAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ds := randomDataset(r, 200, 12, 3, 0.25)
	idx := New(ds, Options{})
	for _, q := range testQueries(r, ds, 12, 3) {
		qv := pathfeat.SimplePathVector(q, idx.FilterPathLen())
		if allocs := testing.AllocsPerRun(20, func() { idx.FilterVector(qv) }); allocs > 3 {
			t.Errorf("%d-vertex query: %.0f allocations per FilterVector, want ≤ 3", q.NumVertices(), allocs)
		}
	}
}

// benchDataset is a molecule-like dataset: sparse graphs of 15–45
// vertices over a handful of labels.
func benchDataset(r *rand.Rand, count int) *dataset.Dataset {
	gs := make([]*graph.Graph, count)
	for i := range gs {
		n := 15 + r.Intn(30)
		gs[i] = randomGraph(r, n, 5, 2.2/float64(n))
	}
	return dataset.New(gs)
}

// BenchmarkGGSXBuild builds the index over two datasets: "random-400",
// 400 molecule-like random graphs, and "aids-800", the 800 AIDS-like
// graphs the fleet benchmark serves (331,528 postings in 109,145 columns).
func BenchmarkGGSXBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"random-400", benchDataset(rand.New(rand.NewSource(1)), 400)},
		{"aids-800", gen.DefaultAIDS().Scaled(0.02, 1).Generate(20170321)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(bc.ds, Options{})
			}
		})
	}
}

// BenchmarkGGSXApplyMutation runs the fleet benchmark's mutate_mix
// schedule over two datasets, "random-400" and "aids-800" (the fleet's).
// Each iteration adds n graphs (copies of base graphs), removes n (base
// graphs in a shuffled order, then the added ones, oldest first) and edits
// one base graph, dropping one edge and joining two vertices. A case times
// one kind: "add", "remove" and "edit" with n = 1, "add4" and "remove4"
// with n = 4, the mutation mutate_mix sends, and "cycle" the whole n = 4
// iteration. The rest runs with the timer stopped. The index is never
// reset, so its upkeep (a compaction now and then) lands in the timed
// kinds as often as it does when serving. The iteration count changes the
// state the index is measured in: compare runs with the same -benchtime=Nx.
func BenchmarkGGSXApplyMutation(b *testing.B) {
	for _, dc := range []struct {
		name string
		ds   func() *dataset.Dataset
	}{
		{"random-400", func() *dataset.Dataset { return benchDataset(rand.New(rand.NewSource(1)), 400) }},
		{"aids-800", func() *dataset.Dataset { return gen.DefaultAIDS().Scaled(0.02, 1).Generate(20170321) }},
	} {
		for _, bc := range []struct {
			name  string
			n     int
			timed string // the kind timed; "" times all three
		}{
			{"cycle", 4, ""}, {"add", 1, "add"}, {"remove", 1, "remove"}, {"edit", 1, "edit"},
			{"add4", 4, "add"}, {"remove4", 4, "remove"},
		} {
			b.Run(dc.name+"/"+bc.name, func(b *testing.B) {
				ds := dc.ds()
				base := ds.Graphs()
				r := rand.New(rand.NewSource(2))
				var queue, edits []int32
				for i, id := range r.Perm(len(base)) {
					if i < len(base)/2 {
						queue = append(queue, int32(id))
					} else {
						edits = append(edits, int32(id))
					}
				}
				idx := New(ds, Options{})
				timed := func(kind string, f func()) {
					if bc.timed != "" && bc.timed != kind {
						b.StopTimer()
						defer b.StartTimer()
					}
					f()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					added := make([]*graph.Graph, bc.n)
					for k := range added {
						added[k] = base[(i*bc.n+k)%len(base)].Clone()
					}
					id := edits[i%len(edits)]
					edited, err := dataset.ApplyEdgeEdits(ds.Graph(id), rewire(r, ds.Graph(id)))
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					timed("add", func() {
						queue = append(queue, ds.AddGraphs(added)...)
						idx.ApplyDatasetMutation(added, nil, nil)
					})
					timed("remove", func() {
						idx.ApplyDatasetMutation(nil, nil, ds.RemoveGraphs(queue[:bc.n]))
						queue = queue[bc.n:]
					})
					timed("edit", func() {
						g, err := ds.Replace(id, edited)
						if err != nil {
							b.Fatal(err)
						}
						idx.ApplyDatasetMutation(nil, []*graph.Graph{g}, nil)
					})
				}
			})
		}
	}
}

// BenchmarkGGSXCompact times one compaction of aids-800 (the fleet's
// dataset) as mutate_mix leaves it: graphs added as copies of base graphs
// and as many base graphs removed, one of each per step, up to the last
// step before the delta or the tombstoned postings would pass
// 1/compactShare of the main postings. Each iteration restores that state
// with the timer stopped — compaction writes new columns and leaves the
// old ones as they are — and compacts it.
func BenchmarkGGSXCompact(b *testing.B) {
	ds := gen.DefaultAIDS().Scaled(0.02, 1).Generate(20170321)
	idx := New(ds, Options{})
	base := ds.Graphs()
	limit := len(idx.main.IDs) / compactShare
	for i, id := range rand.New(rand.NewSource(2)).Perm(len(base)) {
		g := base[i].Clone()
		if len(idx.delta.IDs)+len(pathfeat.SimplePathVector(g, idx.opts.MaxPathLen)) > limit ||
			idx.deadPostings+int(idx.held[id].posts) > limit {
			break
		}
		ds.AddGraphs([]*graph.Graph{g})
		idx.ApplyDatasetMutation([]*graph.Graph{g}, nil, ds.RemoveGraphs([]int32{int32(id)}))
	}
	state := *idx
	held := slices.Clone(idx.held)
	b.Logf("main %d postings, delta %d, tombstoned %d", len(idx.main.IDs), len(idx.delta.IDs), idx.deadPostings)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		*idx = state
		idx.held = slices.Clone(held)
		b.StartTimer()
		idx.compact()
	}
}

// rewire returns the edge edits of mutate_mix's edit: one edge of g
// dropped, and two vertices that were not adjacent joined.
func rewire(r *rand.Rand, g *graph.Graph) []dataset.EdgeEdit {
	var edits []dataset.EdgeEdit
	if m := g.NumEdges(); m > 0 {
		drop, i := r.Intn(m), 0
		g.Edges(func(u, v int32) {
			if i == drop {
				edits = append(edits, dataset.EdgeEdit{U: u, V: v, Del: true})
			}
			i++
		})
	}
	n := int32(g.NumVertices())
	for tries := 0; tries < 64; tries++ {
		if u, v := r.Int31n(n), r.Int31n(n); u != v && !g.HasEdge(u, v) {
			return append(edits, dataset.EdgeEdit{U: u, V: v})
		}
	}
	return edits
}

var idsSink []int32

// FuzzGGSXMutations decodes a schedule of mutations — two bytes a step,
// an op and its argument — and runs it against an index over a dozen
// small graphs, checking after every step that the index equals a fresh
// build (equalsFreshBuild). The index is small, so a compaction comes
// every few steps and a schedule crosses several. The ops are: 0 add a
// graph; 1 remove a live graph; 2 edit a live graph; 3 remove the newest
// live graph, which is in the delta unless a compaction took it; 4 edit
// the graph the last add or edit named, again; 5 add a graph and remove
// another in the same mutation as a live one; 6 re-assert every graph, as a
// snapshot resync does; 7 remove up to three live graphs at once.
func FuzzGGSXMutations(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0})                                     // add, then remove it from the delta
	f.Add([]byte{2, 5, 4, 6, 4, 7})                               // edit one graph three times
	f.Add([]byte{5, 9, 6, 0, 7, 3})                               // add+remove in one mutation, resync, batch removal
	f.Add(bytes.Repeat([]byte{0, 1, 2, 2, 4, 3, 1, 4, 3, 0}, 12)) // 60 steps: many compactions
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 160 {
			data = data[:160]
		}
		r := rand.New(rand.NewSource(41))
		ds := randomDataset(r, 12, 7, 3, 0.35)
		idx := New(ds, Options{MaxPathLen: 3})
		content := func(arg byte) *graph.Graph {
			return randomGraph(rand.New(rand.NewSource(int64(arg))), 1+int(arg%8), 3, 0.4)
		}
		live := func(arg byte) int32 { ids := ds.AllIDs(); return ids[int(arg)%len(ids)] }
		last := int32(-1) // the graph the last add or edit named
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]%8, data[step+1]
			if ds.Live() < 3 {
				op = 0
			}
			switch op {
			case 0:
				gs := []*graph.Graph{content(arg)}
				last = ds.AddGraphs(gs)[0]
				idx.ApplyDatasetMutation(gs, nil, nil)
			case 1, 3, 7:
				ids := []int32{live(arg)}
				if op == 3 {
					all := ds.AllIDs()
					ids = all[len(all)-1:]
				}
				if op == 7 {
					ids = append(ids, live(arg/3), live(arg/7))
				}
				idx.ApplyDatasetMutation(nil, nil, ds.RemoveGraphs(ids))
			case 2, 4:
				id := live(arg)
				if op == 4 && last >= 0 && ds.Alive(last) {
					id = last
				}
				g, err := ds.Replace(id, content(arg))
				if err != nil {
					t.Fatal(err)
				}
				last = id
				idx.ApplyDatasetMutation(nil, []*graph.Graph{g}, nil)
			case 5:
				gone := ds.RemoveGraphs([]int32{live(arg)})
				gs := []*graph.Graph{content(arg), content(arg + 1)}
				ids := ds.AddGraphs(gs)
				gone = append(gone, ds.RemoveGraphs(ids[1:])...) // a hole: never indexed
				idx.ApplyDatasetMutation(gs[:1], nil, gone)
			case 6:
				var all []*graph.Graph
				for _, g := range ds.Graphs() {
					if g != nil {
						all = append(all, g)
					}
				}
				idx.ApplyDatasetMutation(nil, all, nil)
			}
			if diff := equalsFreshBuild(idx, testQueries(rand.New(rand.NewSource(int64(step))), ds, 5, 3)); diff != "" {
				t.Fatalf("step %d (op %d, arg %d): %s", step/2, op, arg, diff)
			}
		}
	})
}
