package dataset

import (
	"testing"

	"graphcache/internal/graph"
)

func mkGraph(n, m int, label graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(label)
	}
	added := 0
	for i := 0; i < n && added < m; i++ {
		for j := i + 1; j < n && added < m; j++ {
			b.AddEdge(int32(i), int32(j))
			added++
		}
	}
	return b.MustBuild()
}

func TestNewRenumbers(t *testing.T) {
	g1 := mkGraph(3, 2, 1)
	g1.SetID(99)
	g2 := mkGraph(4, 3, 2)
	d := New([]*graph.Graph{g1, g2})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Graph(0).ID() != 0 || d.Graph(1).ID() != 1 {
		t.Error("New must renumber graph IDs densely")
	}
	if d.Graph(0) != g1 {
		t.Error("Graph(0) must return the first graph")
	}
}

func TestAllIDs(t *testing.T) {
	d := New([]*graph.Graph{mkGraph(2, 1, 0), mkGraph(2, 1, 0), mkGraph(2, 1, 0)})
	ids := d.AllIDs()
	if len(ids) != 3 {
		t.Fatalf("AllIDs len = %d, want 3", len(ids))
	}
	for i, id := range ids {
		if id != int32(i) {
			t.Errorf("AllIDs[%d] = %d, want %d", i, id, i)
		}
	}
	// Mutating the returned slice must not affect subsequent calls.
	ids[0] = 42
	if d.AllIDs()[0] != 0 {
		t.Error("AllIDs must return a fresh slice")
	}
}

func TestComputeStats(t *testing.T) {
	d := New([]*graph.Graph{
		mkGraph(2, 1, 1), // 2 vertices, 1 edge, avg degree 1
		mkGraph(4, 3, 2), // 4 vertices, 3 edges, avg degree 1.5
	})
	s := d.ComputeStats()
	if s.NumGraphs != 2 {
		t.Errorf("NumGraphs = %d", s.NumGraphs)
	}
	if s.AvgVertices != 3 {
		t.Errorf("AvgVertices = %f, want 3", s.AvgVertices)
	}
	if s.AvgEdges != 2 {
		t.Errorf("AvgEdges = %f, want 2", s.AvgEdges)
	}
	if s.MaxVertices != 4 || s.MaxEdges != 3 {
		t.Errorf("Max = %d/%d, want 4/3", s.MaxVertices, s.MaxEdges)
	}
	if s.DistinctLabels != 2 {
		t.Errorf("DistinctLabels = %d, want 2", s.DistinctLabels)
	}
	if s.AvgDegree != 1.25 {
		t.Errorf("AvgDegree = %f, want 1.25", s.AvgDegree)
	}
	if s.StdVertices != 1 {
		t.Errorf("StdVertices = %f, want 1", s.StdVertices)
	}
	if s.String() == "" {
		t.Error("String must render")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := New(nil).ComputeStats()
	if s.NumGraphs != 0 || s.AvgVertices != 0 {
		t.Error("empty dataset stats must be zero")
	}
}

// TestEdgeEditKeepsLabelSignature checks the mutation edit path: an edited
// graph keeps its labels, so its label signature — what the sub-iso label
// screens read — must equal the original's.
func TestEdgeEditKeepsLabelSignature(t *testing.T) {
	b := graph.NewBuilder()
	for _, l := range []graph.Label{4, 2, 4, 9, 2, 4} {
		b.AddVertex(l)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	ng, err := ApplyEdgeEdits(g, []EdgeEdit{{U: 0, V: 1, Del: true}, {U: 3, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if ng.DistinctLabels() != 3 || ng.LabelCount(4) != 3 || ng.LabelCount(2) != 2 || ng.LabelCount(9) != 1 {
		t.Errorf("edited graph: distinct %d, counts %d/%d/%d; want 3, 3/2/1",
			ng.DistinctLabels(), ng.LabelCount(4), ng.LabelCount(2), ng.LabelCount(9))
	}
	if !ng.LabelsDominate(g) || !g.LabelsDominate(ng) {
		t.Error("an edge edit must leave the label multiset unchanged")
	}
}
