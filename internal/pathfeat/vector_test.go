package pathfeat

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// vecDominates is the filtering condition over vectors: every (ID, count)
// of want appears in have with at least that count.
func vecDominates(have, want Vector) bool {
	j := 0
	for _, fc := range want {
		for j < len(have) && have[j].ID < fc.ID {
			j++
		}
		if j >= len(have) || have[j].ID != fc.ID || have[j].Count < fc.Count {
			return false
		}
	}
	return true
}

// TestVectorOfMatchesCounts: without collisions VectorOf is a lossless
// change of representation — one entry per key, sorted by strictly
// ascending ID, carrying the key's count.
func TestVectorOfMatchesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		c := SimplePaths(randomGraph(r, 2+r.Intn(12), 1+r.Intn(4), 0.3), 4)
		vec := VectorOf(c)
		if len(vec) != len(c) {
			t.Fatalf("vector has %d entries for %d keys", len(vec), len(c))
		}
		byID := make(map[uint64]int32, len(c))
		for k, n := range c {
			byID[keyBytesHash(k)] = n
		}
		for j, fc := range vec {
			if j > 0 && vec[j-1].ID >= fc.ID {
				t.Fatalf("vector not strictly ID-sorted at %d", j)
			}
			if byID[fc.ID] != fc.Count {
				t.Fatalf("ID %x carries count %d, want %d", fc.ID, fc.Count, byID[fc.ID])
			}
		}
	}
	if VectorOf(nil) != nil {
		t.Error("the empty feature set has the nil vector")
	}
}

// TestCollidingIDsSumMerge forces collisions (every key lands on one of
// three IDs) and checks the two things the design rests on: colliding
// counts are summed, and a true container still dominates its containee.
func TestCollidingIDsSumMerge(t *testing.T) {
	collide := func(k Key) uint64 { return keyBytesHash(k) % 3 }

	c := Counts{key(1): 2, key(2): 3, key(1, 2): 5, key(2, 1): 7}
	vec := VectorOfIDs(c, func(Key) uint64 { return 42 })
	if len(vec) != 1 || vec[0] != (FeatCount{ID: 42, Count: 17}) {
		t.Fatalf("all keys on one ID: got %v, want one entry of count 17", vec)
	}

	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		g := randomGraph(r, 5+r.Intn(12), 3, 0.3)
		q := extractSubgraph(r, g, 2+r.Intn(4))
		gv := VectorOfIDs(SimplePaths(g, 4), collide)
		qv := VectorOfIDs(SimplePaths(q, 4), collide)
		if len(gv) > 3 || len(qv) > 3 {
			t.Fatalf("more entries than IDs: %d, %d", len(gv), len(qv))
		}
		if !vecDominates(gv, qv) {
			t.Fatalf("trial %d: merged vector of a container lost domination over its subgraph", i)
		}
	}
}

// hashTestGraphs is the seeded family the extraction tests run
// over: the empty graph, a single vertex, graphs past 64 vertices, and
// labels on both sides of 256 so both key bytes of a label matter.
func hashTestGraphs(r *rand.Rand) []*graph.Graph {
	gs := []*graph.Graph{
		graph.NewBuilder().MustBuild(),
		path(7),
		path(300),
		path(1, 256, 1, 257),
		randomGraph(r, 70, 3, 0.03),
		randomGraph(r, 100, 400, 0.02),
	}
	for i := 0; i < 60; i++ {
		g := randomGraph(r, 1+r.Intn(25), 1+r.Intn(5), 0.05+0.3*r.Float64())
		if i%3 == 0 { // spread the labels over both key bytes
			b := graph.NewBuilder()
			for v := 0; v < g.NumVertices(); v++ {
				b.AddVertex(g.Label(int32(v)) * 131)
			}
			g.Edges(b.AddEdge)
			g = b.MustBuild()
		}
		gs = append(gs, g)
	}
	return gs
}

// TestSimplePathVectorMatchesMapPath: the direct extraction is the map
// path's vector, entry for entry, at every length.
func TestSimplePathVectorMatchesMapPath(t *testing.T) {
	for i, g := range hashTestGraphs(rand.New(rand.NewSource(14))) {
		for _, maxLen := range []int{-1, 0, 1, 4, 5} {
			c := SimplePaths(g, maxLen)
			got, want := SimplePathVector(g, maxLen), VectorOf(c)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d, maxLen %d: SimplePathVector = %v, want %v", i, maxLen, got, want)
			}
		}
	}
}

// TestSimplePathVectorConcurrent: extractions running side by side share
// nothing.
func TestSimplePathVectorConcurrent(t *testing.T) {
	gs := hashTestGraphs(rand.New(rand.NewSource(6)))
	want := make([]Vector, len(gs))
	for i, g := range gs {
		want[i] = VectorOf(SimplePaths(g, 4))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range gs {
				i = (i + w*7) % len(gs)
				if got := SimplePathVector(gs[i], 4); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d, graph %d: concurrent extraction differs", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSimplePathVectorIsCounted: the call counter the incremental-rebuild
// tests read covers the direct extraction.
func TestSimplePathVectorIsCounted(t *testing.T) {
	before := SimplePathsCalls()
	SimplePathVector(path(1, 2), 4)
	SimplePaths(path(1, 2), 4)
	if got := SimplePathsCalls() - before; got != 2 {
		t.Errorf("counter moved by %d over one call of each extraction, want 2", got)
	}
}

// TestSimplePathVectorAllocations: the extraction allocates its marks, the
// path bound's scratch, the ID slice and the vector — nothing per path,
// whatever the size of the graph.
func TestSimplePathVectorAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, g := range []*graph.Graph{path(1), randomGraph(r, 25, 4, 0.12), randomGraph(r, 64, 3, 0.04), randomGraph(r, 300, 3, 0.01)} {
		if allocs := testing.AllocsPerRun(50, func() { SimplePathVector(g, 4) }); allocs > 4 {
			t.Errorf("%d vertices: %.0f allocations per extraction, want ≤ 4", g.NumVertices(), allocs)
		}
	}
}

// TestPathBoundCoversSimplePaths: the presize is never short of the
// occurrences the enumeration appends, so the ID slice never regrows.
func TestPathBoundCoversSimplePaths(t *testing.T) {
	for i, g := range hashTestGraphs(rand.New(rand.NewSource(8))) {
		for _, maxLen := range []int{-1, 0, 1, 4, 5} {
			var paths int
			for _, n := range SimplePaths(g, maxLen) {
				paths += int(n)
			}
			if bound := pathBound(g, maxLen); bound < paths {
				t.Errorf("graph %d, maxLen %d: bound %d under %d paths", i, maxLen, bound, paths)
			}
		}
	}
}

// FuzzSimplePathVector checks the direct extraction against the map path
// on whatever graphs the binary decoder accepts.
func FuzzSimplePathVector(f *testing.F) {
	for _, g := range hashTestGraphs(rand.New(rand.NewSource(2))) {
		if data, err := graph.EncodeBinary([]*graph.Graph{g}); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := graph.DecodeBinary(data)
		if err != nil {
			return
		}
		for _, g := range gs {
			if g.NumVertices() > 100 || g.NumEdges() > 200 {
				continue // path enumeration is exponential in the degree
			}
			if got, want := SimplePathVector(g, 4), VectorOf(SimplePaths(g, 4)); !reflect.DeepEqual(got, want) {
				t.Fatalf("SimplePathVector = %v, want %v", got, want)
			}
		}
	})
}

// refPathLocations is SimplePathLocations by its definition: the
// string-keyed locations restricted to keys of ≥ 1 edge and regrouped by
// FNV-1a ID, colliding keys' vertex sets merged.
func refPathLocations(g *graph.Graph, maxLen int) PathLocations {
	_, locs := SimplePathsWithLocations(g, maxLen)
	byID := make(map[uint64][]int32)
	for k, vs := range locs {
		if KeyLen(k) >= 2 {
			byID[keyBytesHash(k)] = append(byID[keyBytesHash(k)], vs...)
		}
	}
	var loc PathLocations
	for _, id := range slices.Sorted(maps.Keys(byID)) {
		vs := byID[id]
		slices.Sort(vs)
		loc.IDs = append(loc.IDs, id)
		loc.Verts = append(loc.Verts, slices.Compact(vs)...)
		loc.Ends = append(loc.Ends, uint32(len(loc.Verts)))
	}
	return loc
}

// TestSimplePathLocationsMatchesReference: the flat location index is the
// string-keyed one, ID for ID and vertex for vertex, at every length.
func TestSimplePathLocationsMatchesReference(t *testing.T) {
	for i, g := range hashTestGraphs(rand.New(rand.NewSource(15))) {
		for _, maxLen := range []int{-1, 0, 1, 2, 4} {
			got, want := SimplePathLocations(g, maxLen), refPathLocations(g, maxLen)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d, maxLen %d: SimplePathLocations = %v, want %v", i, maxLen, got, want)
			}
			for k := range got.IDs {
				if len(got.Vertices(k)) < 2 {
					t.Fatalf("graph %d, maxLen %d: ID %d covers %v, fewer than a path of one edge", i, maxLen, k, got.Vertices(k))
				}
			}
		}
	}
}

// FuzzSimplePathLocations checks the location index against its
// string-keyed definition on whatever graphs the binary decoder accepts.
func FuzzSimplePathLocations(f *testing.F) {
	for _, g := range hashTestGraphs(rand.New(rand.NewSource(2))) {
		if data, err := graph.EncodeBinary([]*graph.Graph{g}); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := graph.DecodeBinary(data)
		if err != nil {
			return
		}
		for _, g := range gs {
			if g.NumVertices() > 100 || g.NumEdges() > 200 {
				continue // path enumeration is exponential in the degree
			}
			if got, want := SimplePathLocations(g, 4), refPathLocations(g, 4); !reflect.DeepEqual(got, want) {
				t.Fatalf("SimplePathLocations = %v, want %v", got, want)
			}
		}
	})
}

// BenchmarkSimplePathVector extracts one 25-vertex random graph, directly
// and through the map-based reference, and, in "aids-800", every graph of
// the fleet benchmark's 800-graph AIDS-like dataset: ms/dataset is an
// index build's extraction, single-threaded.
func BenchmarkSimplePathVector(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(1)), 25, 4, 0.12)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vecSink = SimplePathVector(g, 4)
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vecSink = VectorOf(SimplePaths(g, 4))
		}
	})
	b.Run("aids-800", func(b *testing.B) {
		gs := gen.DefaultAIDS().Scaled(0.02, 1).Generate(20170321).Graphs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range gs {
				vecSink = SimplePathVector(g, 4)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/dataset")
	})
}

var vecSink Vector
