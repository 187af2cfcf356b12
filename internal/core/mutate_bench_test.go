package core

import (
	"math/rand"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
)

// BenchmarkApplyMutation times a warm cache's ApplyMutation on the fleet
// benchmark's mutate_mix: GGSX over "aids-800", the fleet's 800 AIDS-like
// graphs, a cache of C = 100 and W = 20 (gcserved's defaults) warmed by a
// ZZ stream, and the mutation cycle mutate_mix sends. It adds four graphs
// (copies of base graphs), removes four (base graphs in a shuffled order,
// then the added ones, oldest first) and edits one base graph, dropping
// one edge and joining two vertices. One op is one mutation, so ns/op is
// the cycle's mean. Nothing is reset between mutations, so the iteration
// count changes the state measured: compare runs with the same
// -benchtime=Nx, a multiple of three.
func BenchmarkApplyMutation(b *testing.B) {
	ds := moleculeDataset(800, 20170321)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 100, WindowSize: 20})
	for _, q := range typeAWorkload(ds, "ZZ", 3000, 7) {
		c.Query(q.Graph)
	}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		switch cycle := i / 3; i % 3 {
		case 0:
			b.StopTimer()
			added := make([]*graph.Graph, 4)
			for k := range added {
				added[k] = base[(cycle*4+k)%len(base)].Clone()
			}
			b.StartTimer()
			var res MutationResult
			res, err = c.AddGraphs(added)
			queue = append(queue, res.AddedIDs...)
		case 1:
			_, err = c.RemoveGraphs(queue[:4])
			queue = queue[4:]
		default:
			b.StopTimer()
			id := edits[cycle%len(edits)]
			e := rewire(r, ds.Graph(id))
			b.StartTimer()
			_, err = c.EditGraphEdges(id, e)
		}
		if err != nil {
			b.Fatal(err)
		}
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
