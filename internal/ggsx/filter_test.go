package ggsx

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
	"graphcache/internal/workload"
)

// fleetWorld returns the fleet benchmark's AIDS-like dataset at the given
// count factor: ×0.02 is its 800 graphs (109,145 columns), ×0.1 4,000.
func fleetWorld(scale float64) *dataset.Dataset {
	return gen.DefaultAIDS().Scaled(scale, 1).Generate(20170321)
}

// fleetQueries returns the feature vectors of n Type A queries of stream
// ("ZZ" or "UU") over ds, drawn as the fleet benchmark draws them.
func fleetQueries(tb testing.TB, ds *dataset.Dataset, stream string, n int, seed int64) []pathfeat.Vector {
	cfg, err := workload.TypeACategory(stream, 1.4, []int{4, 8, 12, 16, 20}, n)
	if err != nil {
		tb.Fatal(err)
	}
	var qvs []pathfeat.Vector
	for _, q := range workload.TypeA(ds, cfg, seed) {
		qvs = append(qvs, pathfeat.SimplePathVector(q.Graph, 4))
	}
	return qvs
}

// postingMaps is the reference the filter is checked against: for each
// feature, a map from each live graph holding it to its count there.
type postingMaps map[uint64]map[int32]int32

func referencePostings(ds *dataset.Dataset) postingMaps {
	pm := postingMaps{}
	for _, g := range ds.Graphs() {
		if g == nil {
			continue
		}
		for _, fc := range pathfeat.SimplePathVector(g, 4) {
			if pm[fc.ID] == nil {
				pm[fc.ID] = map[int32]int32{}
			}
			pm[fc.ID][g.ID()] = fc.Count
		}
	}
	return pm
}

// filter returns, ascending, the graphs whose count of every feature of qv
// is at least the query's: the smallest column's graphs, each looked up in
// every other column.
func (pm postingMaps) filter(qv pathfeat.Vector) []int32 {
	smallest := pm[qv[0].ID]
	for _, fc := range qv {
		if len(pm[fc.ID]) < len(smallest) {
			smallest = pm[fc.ID]
		}
	}
	var out []int32
	for _, id := range slices.Sorted(maps.Keys(smallest)) {
		ok := true
		for _, fc := range qv {
			if pm[fc.ID][id] < fc.Count {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// TestFilterEqualsReferenceIntersection runs 2,000 ZZ and 2,000 UU queries
// over the fleet's ×0.02 world through a fresh index, then through one
// carrying tombstones and a delta, and checks that FilterVector returns
// exactly what a per-column map intersection over the current dataset
// returns, for every query.
func TestFilterEqualsReferenceIntersection(t *testing.T) {
	ds := fleetWorld(0.02)
	var qvs []pathfeat.Vector
	for i, stream := range []string{"ZZ", "UU"} {
		qvs = append(qvs, fleetQueries(t, ds, stream, 2000, int64(i+1))...)
	}
	idx := New(ds, Options{})
	check := func(state string) {
		t.Helper()
		ref := referencePostings(ds)
		for i, qv := range qvs {
			if got, want := idx.FilterVector(qv), ref.filter(qv); !slices.Equal(got, want) {
				t.Fatalf("%s, query %d: FilterVector = %v, reference = %v", state, i, got, want)
			}
		}
	}
	check("fresh index")

	// Tombstones from removals and edits, a delta from edits and additions,
	// both under the compaction threshold.
	others := gen.DefaultAIDS().Scaled(0.001, 1).Generate(7).Graphs()
	ds.RemoveGraphs([]int32{3, 40, 41, 400, 799})
	for i, id := range []int32{0, 7, 500, 798} {
		g, err := ds.Replace(id, others[i].Clone())
		if err != nil {
			t.Fatal(err)
		}
		idx.ApplyDatasetMutation(nil, []*graph.Graph{g}, nil)
	}
	idx.ApplyDatasetMutation(nil, nil, []int32{3, 40, 41, 400, 799})
	var added []*graph.Graph
	for _, g := range others[4:24] {
		added = append(added, g.Clone())
	}
	ds.AddGraphs(added)
	idx.ApplyDatasetMutation(added, nil, nil)
	if idx.deadPostings == 0 || len(idx.delta.IDs) == 0 {
		t.Fatalf("%d dead postings, %d in the delta: the mutations compacted the index", idx.deadPostings, len(idx.delta.IDs))
	}
	check("tombstones and a delta")
}

// BenchmarkGGSXFilter times FilterVector over the fleet's worlds at ×0.02
// (800 graphs) and ×0.1 (4,000), for 2,000 ZZ and 2,000 UU queries whose
// vectors are extracted beforehand: µs/query is Method M's filter stage
// alone, as the cache runs it.
func BenchmarkGGSXFilter(b *testing.B) {
	for _, scale := range []float64{0.02, 0.1} {
		ds := fleetWorld(scale)
		idx := New(ds, Options{})
		for i, stream := range []string{"ZZ", "UU"} {
			qvs := fleetQueries(b, ds, stream, 2000, int64(i+1))
			b.Run(fmt.Sprintf("%s/x%g", stream, scale), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, qv := range qvs {
						idsSink = idx.FilterVector(qv)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(qvs)), "µs/query")
			})
		}
	}
}
