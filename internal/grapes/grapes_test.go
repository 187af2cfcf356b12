package grapes

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"graphcache/internal/dataset"
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

func TestNames(t *testing.T) {
	ds := dataset.New([]*graph.Graph{path(1)})
	if got := New(ds, Options{}).Name(); got != "grapes1" {
		t.Errorf("default name = %q, want grapes1", got)
	}
	if got := New(ds, Options{Threads: 6}).Name(); got != "grapes6" {
		t.Errorf("name = %q, want grapes6", got)
	}
}

func TestAnswerMatchesSIScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := randomDataset(r, 20, 10, 3, 0.3)
	idx := New(ds, Options{})
	si := method.NewVF2(ds)
	for i := 0; i < 30; i++ {
		q := randomGraph(r, 2+r.Intn(5), 3, 0.4)
		got := method.Answer(idx, q)
		want := method.Answer(si, q)
		if !equalIDs(got, want) {
			t.Fatalf("query %d: grapes answer %v != si answer %v", i, got, want)
		}
	}
}

func TestVerifyLocationRestriction(t *testing.T) {
	// Graph: two disjoint triangles with different labels joined by
	// nothing; region restriction must still find the right one.
	b := graph.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddVertex(1)
	}
	for i := 0; i < 3; i++ {
		b.AddVertex(2)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	g := b.MustBuild()
	ds := dataset.New([]*graph.Graph{g})
	idx := New(ds, Options{})

	tri := func(l graph.Label) *graph.Graph {
		tb := graph.NewBuilder()
		tb.AddVertex(l)
		tb.AddVertex(l)
		tb.AddVertex(l)
		tb.AddEdge(0, 1)
		tb.AddEdge(1, 2)
		tb.AddEdge(0, 2)
		return tb.MustBuild()
	}
	if !idx.Verify(tri(1), 0) {
		t.Error("triangle(1) must be found")
	}
	if !idx.Verify(tri(2), 0) {
		t.Error("triangle(2) must be found")
	}
	// Mixed-label triangle does not exist.
	mb := graph.NewBuilder()
	mb.AddVertex(1)
	mb.AddVertex(1)
	mb.AddVertex(2)
	mb.AddEdge(0, 1)
	mb.AddEdge(1, 2)
	mb.AddEdge(0, 2)
	if idx.Verify(mb.MustBuild(), 0) {
		t.Error("mixed triangle must not be found")
	}
}

func TestSingleVertexQuery(t *testing.T) {
	ds := dataset.New([]*graph.Graph{path(1, 2), path(3, 4)})
	idx := New(ds, Options{})
	ans := method.Answer(idx, path(3))
	if !equalIDs(ans, []int32{1}) {
		t.Errorf("Answer(v3) = %v, want [1]", ans)
	}
}

func TestVerifyBatchMatchesSequentialAcrossThreadCounts(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ds := randomDataset(r, 25, 10, 3, 0.3)
	idx1 := New(ds, Options{Threads: 1})
	idx6 := New(ds, Options{Threads: 6})
	for i := 0; i < 15; i++ {
		q := randomGraph(r, 2+r.Intn(5), 3, 0.4)
		ids := ds.AllIDs()
		seq := make([]bool, len(ids))
		for j, id := range ids {
			seq[j] = idx1.Verify(q, id)
		}
		for _, idx := range []*Index{idx1, idx6} {
			got := idx.VerifyBatch(q, ids)
			for j := range ids {
				if got[j] != seq[j] {
					t.Fatalf("thread pool changed verdict for graph %d", ids[j])
				}
			}
		}
	}
	// Empty batch.
	if out := idx6.VerifyBatch(path(1), nil); len(out) != 0 {
		t.Error("empty batch must return empty results")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 12, 9, 3, 0.35)
		idx := New(ds, Options{MaxPathLen: 3})
		q := randomGraph(r, 2+r.Intn(4), 3, 0.5)
		inCS := make(map[int32]bool)
		for _, id := range idx.Filter(q) {
			inCS[id] = true
		}
		for _, g := range ds.Graphs() {
			if iso.Contains(iso.VF2{}, q, g) {
				if !inCS[g.ID()] {
					return false // filter false negative
				}
				if !idx.Verify(q, g.ID()) {
					return false // location-restricted verify false negative
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
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

// TestVerdictsEqualRebuildUnderMutation drives one index through a seeded
// history of adds, removals and edits and checks, after every step, that
// its filter and its location-restricted verdicts are those of a fresh
// build over the resulting dataset, and that its answers are a VF2 scan's.
func TestVerdictsEqualRebuildUnderMutation(t *testing.T) {
	for _, opts := range []Options{{MaxPathLen: 3, Threads: 1}, {MaxPathLen: 2, Threads: 6}} {
		r := rand.New(rand.NewSource(41))
		ds := randomDataset(r, 20, 9, 3, 0.3)
		idx := New(ds, opts)
		si := method.NewVF2(ds)
		check := func(step int, what string) {
			t.Helper()
			fresh := New(ds, opts)
			for i, q := range testQueries(r, ds, 6, 3) {
				if got, want := idx.Filter(q), fresh.Filter(q); !slices.Equal(got, want) {
					t.Fatalf("%+v step %d (%s) query %d: Filter = %v, fresh build %v", opts, step, what, i, got, want)
				}
				ids := ds.AllIDs()
				if got, want := idx.VerifyBatch(q, ids), fresh.VerifyBatch(q, ids); !slices.Equal(got, want) {
					t.Fatalf("%+v step %d (%s) query %d: VerifyBatch = %v, fresh build %v", opts, step, what, i, got, want)
				}
				if got, want := method.Answer(idx, q), method.Answer(si, q); !slices.Equal(got, want) {
					t.Fatalf("%+v step %d (%s) query %d: Answer = %v, VF2 scan %v", opts, step, what, i, got, want)
				}
			}
		}
		randomLive := func() int32 { live := ds.AllIDs(); return live[r.Intn(len(live))] }
		for step := 0; step < 120; step++ {
			switch op := r.Intn(6); {
			case op == 0 || ds.Live() < 5: // add one or two
				gs := []*graph.Graph{randomGraph(r, 2+r.Intn(9), 3, 0.3)}
				if r.Intn(2) == 0 {
					gs = append(gs, randomGraph(r, 2+r.Intn(9), 4, 0.3))
				}
				ds.AddGraphs(gs)
				idx.ApplyDatasetMutation(gs, nil, nil)
				check(step, "add")
			case op == 1: // add, then remove what was added
				gs := []*graph.Graph{randomGraph(r, 2+r.Intn(9), 7, 0.3)}
				ids := ds.AddGraphs(gs)
				idx.ApplyDatasetMutation(gs, nil, nil)
				ds.RemoveGraphs(ids)
				idx.ApplyDatasetMutation(nil, nil, ids)
				check(step, "add→remove")
			case op == 2: // remove one
				gone := ds.RemoveGraphs([]int32{randomLive()})
				idx.ApplyDatasetMutation(nil, nil, gone)
				check(step, "remove")
			case op == 3: // remove a few, with a replacement arriving in the same mutation
				gone := ds.RemoveGraphs([]int32{randomLive(), randomLive()})
				gs := []*graph.Graph{randomGraph(r, 2+r.Intn(9), 3, 0.3)}
				ds.AddGraphs(gs)
				idx.ApplyDatasetMutation(gs, nil, gone)
				check(step, "remove+add")
			case op == 4: // edit down to a single vertex
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
	}
}

// resync re-asserts every graph of ds into idx the way a snapshot load
// does: live base-range graphs as edits, later ones as adds, tombstones as
// removals.
func resync(idx *Index, ds *dataset.Dataset) {
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
}

// TestResyncLocatesOnlyTheDelta: a resync of an unchanged dataset leaves
// every ID the very same location slices — nothing was recomputed — and a
// resync after a delta gives new slices exactly to the IDs it changed.
func TestResyncLocatesOnlyTheDelta(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gs := make([]*graph.Graph, 24)
	for i := range gs { // every graph has an edge, so every location set has slices
		gs[i] = path(graph.Label(r.Intn(3)), graph.Label(r.Intn(3)), graph.Label(r.Intn(3)))
	}
	ds := dataset.New(gs)
	idx := New(ds, Options{MaxPathLen: 3})
	same := func(a, b pathfeat.PathLocations) bool {
		return unsafe.SliceData(a.IDs) == unsafe.SliceData(b.IDs) &&
			unsafe.SliceData(a.Ends) == unsafe.SliceData(b.Ends) &&
			unsafe.SliceData(a.Verts) == unsafe.SliceData(b.Verts)
	}
	before := slices.Clone(idx.locs)
	resync(idx, ds)
	for id := range before {
		if !same(idx.locs[id], before[id]) {
			t.Errorf("resync of an unchanged dataset recomputed the locations of %d", id)
		}
	}

	changed := map[int32]bool{}
	for _, id := range []int32{3, 11, 17} {
		if _, err := ds.Replace(id, path(1, 2, 0, 1)); err != nil {
			t.Fatal(err)
		}
		changed[id] = true
	}
	for _, id := range ds.AddGraphs([]*graph.Graph{path(2, 2, 1)}) {
		changed[id] = true
	}
	gone := ds.RemoveGraphs([]int32{8})
	before = slices.Clone(idx.locs)
	resync(idx, ds)
	for id, l := range idx.locs {
		switch {
		case id == int(gone[0]):
			if len(l.IDs) != 0 {
				t.Errorf("removed graph %d keeps %d location IDs", id, len(l.IDs))
			}
		case changed[int32(id)]:
			if len(l.IDs) == 0 || id < len(before) && same(l, before[id]) {
				t.Errorf("changed graph %d was not located afresh", id)
			}
		case !same(l, before[id]):
			t.Errorf("unchanged graph %d was located again", id)
		}
	}
	fresh := New(ds, Options{MaxPathLen: 3})
	for id, l := range idx.locs {
		if !reflect.DeepEqual(l, fresh.locs[id]) {
			t.Errorf("graph %d: locations differ from a fresh build", id)
		}
	}
}

// keyLocations is the string-keyed location index of g by definition: the
// label sequence of each simple path of 0..maxLen edges, encoded as a
// pathfeat.Key, maps to the sorted vertices its occurrences cover.
func keyLocations(g *graph.Graph, maxLen int) map[pathfeat.Key][]int32 {
	locs := make(map[pathfeat.Key][]int32)
	visited := make([]bool, g.NumVertices())
	var path []int32
	var key []byte
	var rec func(v int32)
	rec = func(v int32) {
		visited[v] = true
		path = append(path, v)
		key = append(key, byte(g.Label(v)>>8), byte(g.Label(v)))
		locs[string(key)] = append(locs[string(key)], path...)
		if len(path) <= maxLen {
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					rec(u)
				}
			}
		}
		visited[v] = false
		path, key = path[:len(path)-1], key[:len(key)-2]
	}
	for v := range int32(g.NumVertices()) {
		rec(v)
	}
	for k, vs := range locs {
		slices.Sort(vs)
		locs[k] = slices.Compact(vs)
	}
	return locs
}

// mapRegion is the verification region as the map-based index computed
// it: the union of g's locations of q's keys of ≥ 1 edge and of the
// single-label keys of q's isolated vertices.
func mapRegion(q, g *graph.Graph, maxLen int) []int32 {
	gl := keyLocations(g, maxLen)
	var region []int32
	for k := range pathfeat.SimplePaths(q, maxLen) {
		if len(k) == 2 { // one label: kept only for isolated query vertices
			isolated := false
			for v := range int32(q.NumVertices()) {
				isolated = isolated || q.Degree(v) == 0 && pathfeat.Key([]byte{byte(q.Label(v) >> 8), byte(q.Label(v))}) == k
			}
			if !isolated {
				continue
			}
		}
		region = append(region, gl[k]...)
	}
	slices.Sort(region)
	return slices.Compact(region)
}

// locationsUnder is g's location index with IDs drawn from id instead of
// FNV-1a: keys of ≥ 1 edge regrouped by ID, colliding keys' vertices
// merged.
func locationsUnder(g *graph.Graph, maxLen int, id func(pathfeat.Key) uint64) pathfeat.PathLocations {
	byID := make(map[uint64][]int32)
	for k, vs := range keyLocations(g, maxLen) {
		if len(k) >= 4 {
			byID[id(k)] = append(byID[id(k)], vs...)
		}
	}
	var loc pathfeat.PathLocations
	for _, f := range slices.Sorted(maps.Keys(byID)) {
		vs := byID[f]
		slices.Sort(vs)
		loc.IDs = append(loc.IDs, f)
		loc.Verts = append(loc.Verts, slices.Compact(vs)...)
		loc.Ends = append(loc.Ends, uint32(len(loc.Verts)))
	}
	return loc
}

// TestRegionEqualsMapRegion: the region drawn from the flat location index
// is the map-based index's, vertex for vertex; under IDs folded onto five
// values it can only grow, and the verdict stays the VF2 verdict.
func TestRegionEqualsMapRegion(t *testing.T) {
	fold := func(k pathfeat.Key) uint64 { return uint64(len(k)+int(k[len(k)-1])) % 5 }
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := randomDataset(r, 15, 10, 3, 0.3)
		opts := Options{MaxPathLen: 3}
		idx := New(ds, opts)
		folded := &Index{Index: idx.Index, opts: idx.opts, locs: make([]pathfeat.PathLocations, ds.Len())}
		for _, g := range ds.Graphs() {
			folded.locs[g.ID()] = locationsUnder(g, opts.MaxPathLen, fold)
		}
		for i, q := range testQueries(r, ds, 20, 3) {
			qFolded := locationsUnder(q, opts.MaxPathLen, fold).IDs
			for _, g := range ds.Graphs() {
				want := mapRegion(q, g, opts.MaxPathLen)
				if got := idx.region(q, idx.queryPaths(q), g); !slices.Equal(got, want) {
					t.Fatalf("seed %d query %d graph %d: region %v, map-based %v", seed, i, g.ID(), got, want)
				}
				got := folded.region(q, qFolded, g)
				for _, v := range want {
					if _, found := slices.BinarySearch(got, v); !found {
						t.Fatalf("seed %d query %d graph %d: folded region %v lost vertex %d of %v", seed, i, g.ID(), got, v, want)
					}
				}
				if got, want := folded.verify(q, qFolded, g.ID()), iso.Contains(iso.VF2{}, q, g); got != want {
					t.Fatalf("seed %d query %d graph %d: folded verdict %v, VF2 %v", seed, i, g.ID(), got, want)
				}
			}
		}
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkGrapesBuild builds the index over a molecule-like dataset:
// sparse graphs of 15–45 vertices over a handful of labels.
func BenchmarkGrapesBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	gs := make([]*graph.Graph, 400)
	for i := range gs {
		n := 15 + r.Intn(30)
		gs[i] = randomGraph(r, n, 5, 2.2/float64(n))
	}
	ds := dataset.New(gs)
	b.ReportAllocs()
	for b.Loop() {
		New(ds, Options{})
	}
}
