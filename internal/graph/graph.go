// Package graph provides the labelled-graph data model used throughout
// GraphCache: compact undirected vertex-labelled graphs, a builder for
// constructing them safely, traversals, induced subgraphs and text I/O.
//
// Graphs are immutable once built. Vertices are dense int32 identifiers
// 0..n-1, each carrying a Label; edges are undirected, simple (no self
// loops, no multi-edges) and stored as sorted adjacency lists, so
// neighbourhood scans are cache-friendly and membership tests are
// logarithmic.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Label identifies a vertex label. The label alphabet in the datasets the
// paper evaluates on (atom types, residue classes) is small, so 16 bits are
// ample.
type Label uint16

// Graph is an immutable undirected vertex-labelled simple graph.
// The zero value is an empty graph.
type Graph struct {
	id     int32
	labels []Label
	adj    [][]int32 // adj[v] sorted ascending, no duplicates, no self loops
	m      int       // number of undirected edges
	// sig is the label signature: the graph's label multiset as (label,
	// count) pairs in ascending label order. Built once in Build, it turns
	// the label screens every sub-iso test starts with (LabelsDominate,
	// LabelCount) into allocation-free scans of two short sorted slices.
	sig []labelCount
}

// labelCount is one signature entry. Counts saturate at 65535 to keep an
// entry at 4 bytes; see LabelsDominate for why that stays sound.
type labelCount struct {
	label Label
	count uint16
}

// labelSignature returns the sorted (label, count) multiset of labels.
func labelSignature(labels []Label) []labelCount {
	if len(labels) == 0 {
		return nil
	}
	var buf [64]Label // query-sized graphs sort on the stack
	sorted := append(buf[:0], labels...)
	slices.Sort(sorted)
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	sig := make([]labelCount, 0, distinct)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		sig = append(sig, labelCount{label: sorted[i], count: uint16(min(j-i, math.MaxUint16))})
		i = j
	}
	return sig
}

// ID returns the graph's dataset identifier (-1 if never assigned).
func (g *Graph) ID() int32 { return g.id }

// SetID assigns the dataset identifier. It is the only mutation allowed
// after Build, and exists so datasets can renumber graphs on load.
func (g *Graph) SetID(id int32) { g.id = id }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Label returns the label of vertex v.
func (g *Graph) Label(v int32) Label { return g.labels[v] }

// Labels returns the internal label slice. Callers must not modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the number of neighbours of vertex v.
func (g *Graph) Degree(v int32) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbour list of v. Callers must not
// modify the returned slice.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[v] }

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int32) bool {
	// Search the shorter list.
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, v = g.adj[v], u
	}
	_, ok := slices.BinarySearch(a, v)
	return ok
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// AvgDegree returns the average vertex degree, 2m/n.
func (g *Graph) AvgDegree() float64 {
	if len(g.labels) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.labels))
}

// LabelCount returns how many vertices of g carry label l (saturating at
// 65535).
func (g *Graph) LabelCount(l Label) int {
	// Label alphabets are small, so a scan of the sorted signature beats
	// a binary search.
	for _, e := range g.sig {
		if e.label >= l {
			if e.label == l {
				return int(e.count)
			}
			break
		}
	}
	return 0
}

// DistinctLabels returns the number of distinct labels appearing in g.
func (g *Graph) DistinctLabels() int { return len(g.sig) }

// LabelsDominate reports whether g's label multiset contains q's label
// multiset, i.e. every label occurs in g at least as often as in q. This is
// a necessary condition for q ⊆ g and serves as a cheap pre-filter: one
// merge over the two label signatures, no allocation. Counts above 65535
// compare as 65535, which can only turn a "no" into a "yes" — the screen
// may pass a pair it could have rejected, never the reverse.
func (g *Graph) LabelsDominate(q *Graph) bool {
	if q.NumVertices() > g.NumVertices() || len(q.sig) > len(g.sig) {
		return false
	}
	gs := g.sig
	for _, qe := range q.sig {
		for len(gs) > 0 && gs[0].label < qe.label {
			gs = gs[1:]
		}
		if len(gs) == 0 || gs[0].label != qe.label || gs[0].count < qe.count {
			return false
		}
		gs = gs[1:]
	}
	return true
}

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int32)) {
	for u, nb := range g.adj {
		for _, v := range nb {
			if int32(u) < v {
				fn(int32(u), v)
			}
		}
	}
}

// Clone returns a copy of g whose vertices and edges share nothing with the
// receiver; the immutable label signature is shared.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		id:     g.id,
		labels: slices.Clone(g.labels),
		adj:    make([][]int32, len(g.adj)),
		m:      g.m,
		sig:    g.sig,
	}
	for v, nb := range g.adj {
		ng.adj[v] = slices.Clone(nb)
	}
	return ng
}

// StructurallyEqual reports whether g and h are identical graphs under the
// identity vertex mapping (same labels, same adjacency). It is not an
// isomorphism test.
func (g *Graph) StructurallyEqual(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.m != h.m {
		return false
	}
	if !slices.Equal(g.labels, h.labels) {
		return false
	}
	for v := range g.adj {
		if !slices.Equal(g.adj[v], h.adj[v]) {
			return false
		}
	}
	return true
}

// InducedSubgraph returns the subgraph of g induced on the given vertices,
// plus the mapping from new vertex ids to the original ids (new id i
// corresponds to original vertices[i]). Duplicate vertices are rejected.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32, error) {
	old2new := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || int(v) >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: induced subgraph vertex %d out of range [0,%d)", v, g.NumVertices())
		}
		if _, dup := old2new[v]; dup {
			return nil, nil, fmt.Errorf("graph: induced subgraph vertex %d duplicated", v)
		}
		old2new[v] = int32(i)
	}
	b := NewBuilder()
	for _, v := range vertices {
		b.AddVertex(g.labels[v])
	}
	for _, v := range vertices {
		for _, w := range g.adj[v] {
			nw, ok := old2new[w]
			if ok && old2new[v] < nw {
				b.AddEdge(old2new[v], nw)
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, slices.Clone(vertices), nil
}

// String returns a short human-readable summary, e.g. "graph#3(v=5,e=6)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph#%d(v=%d,e=%d)", g.id, g.NumVertices(), g.m)
}

// Builder accumulates vertices and edges and validates them into a Graph.
// The zero value is ready to use.
type Builder struct {
	labels []Label
	eu, ev []int32
	id     int32
}

// NewBuilder returns an empty Builder with id -1.
func NewBuilder() *Builder { return &Builder{id: -1} }

// SetID sets the id the built graph will carry.
func (b *Builder) SetID(id int32) *Builder { b.id = id; return b }

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l Label) int32 {
	b.labels = append(b.labels, l)
	return int32(len(b.labels) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge records the undirected edge {u, v}. Validation (range checks,
// self loops, duplicates) happens in Build so that AddEdge stays allocation
// free in tight generator loops.
func (b *Builder) AddEdge(u, v int32) {
	b.eu = append(b.eu, u)
	b.ev = append(b.ev, v)
}

// Build validates the accumulated vertices and edges and returns the
// immutable Graph. Duplicate edges are collapsed silently (generators often
// emit both orientations); self loops and out-of-range endpoints are errors.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	deg := make([]int, n)
	for i := range b.eu {
		u, v := b.eu[i], b.ev[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self loop on vertex %d", u)
		}
		deg[u]++
		deg[v]++
	}
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = make([]int32, 0, deg[v])
	}
	for i := range b.eu {
		u, v := b.eu[i], b.ev[i]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	m := 0
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = slices.Compact(adj[v])
		m += len(adj[v])
	}
	return &Graph{
		id:     b.id,
		labels: slices.Clone(b.labels),
		adj:    adj,
		m:      m / 2,
		sig:    labelSignature(b.labels),
	}, nil
}

// MustBuild is Build for graphs known to be valid; it panics on error.
// Intended for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
