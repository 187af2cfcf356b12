//go:build !race

package graph

import (
	"math/rand"
	"testing"
)

// TestBuildAllocations pins that Build's allocation count does not grow
// with the graph: the adjacency is two flat slices and both signatures
// sort on the stack, so a 60-vertex molecule costs what a 5-vertex query
// does. That is six allocations: the Graph, its labels, off, nbr and the
// two signatures. The race detector allocates on its own account, so this
// file is not built under -race.
func TestBuildAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	allocs := func(n int) float64 {
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddVertex(Label(r.Intn(6)))
		}
		// A molecule-like shape: a random tree plus a few ring closures.
		for v := 1; v < n; v++ {
			b.AddEdge(int32(r.Intn(v)), int32(v))
		}
		for k := 0; k < n/10+1; k++ {
			if u, v := int32(r.Intn(n)), int32(r.Intn(n)); u != v {
				b.AddEdge(u, v)
			}
		}
		return testing.AllocsPerRun(50, func() { b.MustBuild() })
	}
	small, large := allocs(5), allocs(60)
	if small != large || large > 6 {
		t.Errorf("Build allocates %v times for 5 vertices and %v for 60, want the same count, at most 6", small, large)
	}
}

// molecule builds an n-vertex molecule-like graph: a random tree plus a
// few ring closures over six labels.
func molecule(r *rand.Rand, n int) *Graph {
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(Label(r.Intn(6)))
	}
	for v := 1; v < n; v++ {
		b.AddEdge(int32(r.Intn(v)), int32(v))
	}
	for k := 0; k < n/10+1; k++ {
		if u, v := int32(r.Intn(n)), int32(r.Intn(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// TestDecodeBinaryAllocations pins what decoding one graph of a binary
// frame allocates: the graph's own arrays and nothing else, the same for a
// 60-vertex molecule as for a 5-vertex query. That is five allocations:
// the Graph, its labels, one block holding the CSR offsets and neighbour
// lists, and the two signatures. The frame's graph slice is the one
// allocation on top, per frame.
func TestDecodeBinaryAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	allocs := func(n int) float64 {
		frame, err := EncodeBinary([]*Graph{molecule(r, n)})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeBinary(frame); err != nil {
				t.Fatal(err)
			}
		}) - 1
	}
	small, large := allocs(5), allocs(60)
	if small != large || large > 5 {
		t.Errorf("decoding a graph allocates %v times for 5 vertices and %v for 60, want the same count, at most 5", small, large)
	}
}

// TestBodyKeyAllocations pins that keying a frame body builds nothing:
// up to 64 vertices the body's labels, colours and edge walk all live on
// the stack, however many edges the graph has. The key is the graph's
// IsoKey.
func TestBodyKeyAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, g := range []*Graph{
		molecule(r, 5),
		molecule(r, 40),
		molecule(r, 64),
		randomGraph(r, 64, 4, 0.5), // about a thousand edges
	} {
		body := appendGraphBody(nil, g)
		var key uint64
		if allocs := testing.AllocsPerRun(50, func() {
			var err error
			if key, err = bodyKey(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: keying its body allocates %v times, want 0", g, allocs)
		}
		if key != g.IsoKey() {
			t.Errorf("%v: body key %x, IsoKey %x", g, key, g.IsoKey())
		}
	}
}
