// Package graph provides the labelled-graph data model used throughout
// GraphCache: compact undirected vertex-labelled graphs, a builder for
// constructing them safely, traversals, induced subgraphs and text I/O.
//
// Graphs are immutable once built. Vertices are dense int32 identifiers
// 0..n-1, each carrying a Label; edges are undirected and simple (no self
// loops, no multi-edges). Adjacency is stored in compressed sparse row
// (CSR) form: one offset array and one array holding every vertex's sorted
// neighbour list end to end. A graph is a handful of flat slices whatever
// its size, neighbourhood scans are sequential, and membership tests are
// logarithmic.
//
// Build also records two signatures, multisets that every subgraph-
// isomorphism test is screened against before any search: the vertex
// labels (LabelsDominate) and the endpoint-label pairs of the edges
// (EdgesDominate).
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Label identifies a vertex label. The label alphabet in the datasets the
// paper evaluates on (atom types, residue classes) is small, so 16 bits are
// ample.
type Label uint16

// Graph is an immutable undirected vertex-labelled simple graph: its
// labels, its CSR adjacency, and its label and edge signatures. The zero
// value is an empty graph.
type Graph struct {
	id     int32
	labels []Label
	// off and nbr are the CSR adjacency: v's neighbours are
	// nbr[off[v]:off[v+1]], sorted ascending, no duplicates, no self loops.
	// len(off) is n+1 and len(nbr) is 2m.
	off []int32
	nbr []int32
	// sig is the label signature: the label multiset as (label, count)
	// entries in ascending label order. esig is the edge signature: the
	// multiset of the edges' endpoint-label pairs (see labelPair) in
	// ascending pair order. Both are built once in Build. They turn the
	// screens every sub-iso test starts with (LabelsDominate,
	// EdgesDominate, LabelCount) into allocation-free scans of short
	// sorted slices.
	sig  []keyCount[Label]
	esig []keyCount[uint32]
}

// keyCount is one signature entry. Counts saturate at 65535 to keep an
// entry small; see LabelsDominate for why that stays sound.
type keyCount[K cmp.Ordered] struct {
	key   K
	count uint16
}

// signature run-length codes sorted keys into (key, count) entries.
func signature[K cmp.Ordered](sorted []K) []keyCount[K] {
	if len(sorted) == 0 {
		return nil
	}
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			distinct++
		}
	}
	sig := make([]keyCount[K], 0, distinct)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		sig = append(sig, keyCount[K]{key: sorted[i], count: uint16(min(j-i, math.MaxUint16))})
		i = j
	}
	return sig
}

// dominates reports whether signature g contains signature q as a
// multiset: one merge of the two sorted slices, no allocation.
func dominates[K cmp.Ordered](g, q []keyCount[K]) bool {
	if len(q) > len(g) {
		return false
	}
	for _, qe := range q {
		for len(g) > 0 && g[0].key < qe.key {
			g = g[1:]
		}
		if len(g) == 0 || g[0].key != qe.key || g[0].count < qe.count {
			return false
		}
		g = g[1:]
	}
	return true
}

// labelSignature returns the sorted (label, count) multiset of labels.
func labelSignature(labels []Label) []keyCount[Label] {
	var buf [64]Label // query-sized graphs sort on the stack
	sorted := append(buf[:0], labels...)
	slices.Sort(sorted)
	return signature(sorted)
}

// labelPair keys an edge by its endpoint labels, the lower label in the
// high half, so that both orientations of an edge get the same key.
func labelPair(a, b Label) uint32 {
	if a > b {
		a, b = b, a
	}
	return uint32(a)<<16 | uint32(b)
}

// edgeSignature returns the sorted (label pair, count) multiset of the
// edges of the CSR adjacency off/nbr.
func edgeSignature(labels []Label, off, nbr []int32) []keyCount[uint32] {
	var buf [256]uint32 // query- and molecule-sized graphs sort on the stack
	pairs := buf[:0]
	for u := range labels {
		for _, v := range nbr[off[u]:off[u+1]] {
			if int32(u) < v {
				pairs = append(pairs, labelPair(labels[u], labels[v]))
			}
		}
	}
	slices.Sort(pairs)
	return signature(pairs)
}

// IsoKey returns an isomorphism-invariant key of g: isomorphic graphs
// share it whatever their vertex numbering, and graphs that differ in
// size, labels or the labelled structure around their vertices almost
// never do. It is two rounds of Weisfeiler–Lehman colour refinement: a
// vertex starts with a colour hashed from its label, and each round
// rehashes its colour together with the sum of its neighbours' colours.
// The key hashes the sum of the final colours with |V| and |E|. Sums, not
// XOR, aggregate the colours, because XOR cancels a colour that occurs
// twice. That is O(|V|+|E|), and up to 64 vertices it allocates nothing.
//
// The key depends on g's contents alone, never on a per-process seed, so
// separate processes compute the same key for the same graph.
//
// Equal keys prove nothing. Colour refinement cannot tell some
// non-isomorphic graphs apart (every uniformly labelled 2-regular graph on
// n vertices looks alike to it, e.g. C10 and C5 + C5), and 64-bit sums can
// collide. A key match must be confirmed by an isomorphism test.
func (g *Graph) IsoKey() uint64 {
	n := len(g.labels)
	var buf [2 * 64]uint64
	var cur, next []uint64
	if n <= 64 {
		cur, next = buf[:n], buf[64:64+n]
	} else {
		s := make([]uint64, 2*n)
		cur, next = s[:n], s[n:]
	}
	for v, l := range g.labels {
		cur[v] = mix64(uint64(l) + 0x9e3779b97f4a7c15)
	}
	for round := uint64(1); round <= 2; round++ {
		for v := range n {
			var sum uint64
			for _, w := range g.nbr[g.off[v]:g.off[v+1]] {
				sum += cur[w]
			}
			next[v] = mix64(cur[v] ^ mix64(sum+round))
		}
		cur, next = next, cur
	}
	var sum uint64
	for _, c := range cur {
		sum += c
	}
	return mix64(sum + mix64(uint64(n)<<32|uint64(g.NumEdges())))
}

// mix64 is the splitmix64 finaliser: a bijection on 64-bit words under
// which a one-bit change of the input flips about half the output bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ID returns the graph's dataset identifier (-1 if never assigned).
func (g *Graph) ID() int32 { return g.id }

// SetID assigns the dataset identifier. It is the only mutation allowed
// after Build, and exists so datasets can renumber graphs on load.
func (g *Graph) SetID(id int32) { g.id = id }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.nbr) / 2 }

// Label returns the label of vertex v.
func (g *Graph) Label(v int32) Label { return g.labels[v] }

// Labels returns the internal label slice. Callers must not modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the number of neighbours of vertex v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbour list of v. Callers must not
// modify the returned slice. Its capacity ends with the list, so an append
// copies rather than overwriting the next vertex's neighbours.
func (g *Graph) Neighbors(v int32) []int32 {
	lo, hi := g.off[v], g.off[v+1]
	return g.nbr[lo:hi:hi]
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int32) bool {
	// Search the shorter list.
	a := g.Neighbors(u)
	if g.Degree(v) < len(a) {
		a, v = g.Neighbors(v), u
	}
	_, ok := slices.BinarySearch(a, v)
	return ok
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); int(v) < len(g.labels); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree, 2m/n.
func (g *Graph) AvgDegree() float64 {
	if len(g.labels) == 0 {
		return 0
	}
	return float64(len(g.nbr)) / float64(len(g.labels))
}

// LabelCount returns how many vertices of g carry label l (saturating at
// 65535).
func (g *Graph) LabelCount(l Label) int {
	// Label alphabets are small, so a scan of the sorted signature beats
	// a binary search.
	for _, e := range g.sig {
		if e.key >= l {
			if e.key == l {
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
	return q.NumVertices() <= g.NumVertices() && dominates(g.sig, q.sig)
}

// EdgesDominate reports whether g's edge signature contains q's: for every
// unordered pair of endpoint labels, g has at least as many edges joining
// those labels as q has. This is a necessary condition for q ⊆ g. An
// embedding is injective on vertices and keeps labels, so it maps q's
// edges one to one onto g's edges with the same label pair. Like
// LabelsDominate it is one allocation-free merge, and saturated counts can
// only pass a pair that could have been rejected.
func (g *Graph) EdgesDominate(q *Graph) bool {
	return q.NumEdges() <= g.NumEdges() && dominates(g.esig, q.esig)
}

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int32)) {
	for u := int32(0); int(u) < len(g.labels); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Clone returns a copy of g whose vertices and edges share nothing with the
// receiver; the immutable signatures are shared.
func (g *Graph) Clone() *Graph {
	return &Graph{
		id:     g.id,
		labels: slices.Clone(g.labels),
		off:    slices.Clone(g.off),
		nbr:    slices.Clone(g.nbr),
		sig:    g.sig,
		esig:   g.esig,
	}
}

// StructurallyEqual reports whether g and h are identical graphs under the
// identity vertex mapping (same labels, same adjacency). It is not an
// isomorphism test.
func (g *Graph) StructurallyEqual(h *Graph) bool {
	if !slices.Equal(g.labels, h.labels) || !slices.Equal(g.nbr, h.nbr) {
		return false
	}
	// Without vertices there are no offsets to compare: the zero Graph has
	// none and a built empty graph has the single 0.
	return len(g.labels) == 0 || slices.Equal(g.off, h.off)
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
		for _, w := range g.Neighbors(v) {
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
	return fmt.Sprintf("graph#%d(v=%d,e=%d)", g.id, g.NumVertices(), g.NumEdges())
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
// Its allocation count does not grow with the graph as long as the
// signatures sort on the stack (up to 64 vertices and 256 edges).
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	// off[v] first counts v's edge ends, then (prefix sums) marks the end of
	// v's segment of nbr. Filling each segment back to front leaves off[v]
	// at the segment's start.
	off := make([]int32, n+1)
	for i := range b.eu {
		u, v := b.eu[i], b.ev[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self loop on vertex %d", u)
		}
		off[u]++
		off[v]++
	}
	for v := 1; v < n; v++ {
		off[v] += off[v-1]
	}
	nbr := make([]int32, 2*len(b.eu))
	off[n] = int32(len(nbr))
	for i := range b.eu {
		u, v := b.eu[i], b.ev[i]
		off[u]--
		nbr[off[u]] = v
		off[v]--
		nbr[off[v]] = u
	}
	// Sort each segment, drop duplicate edges and close the gaps they
	// leave. off[v+1] still holds the old start of the next segment when v
	// is reached, so each segment is read before anything overwrites it.
	end := int32(0)
	for v := 0; v < n; v++ {
		seg := nbr[off[v]:off[v+1]]
		slices.Sort(seg)
		seg = slices.Compact(seg)
		off[v] = end
		end += int32(copy(nbr[end:], seg))
	}
	off[n] = end
	if int(end) < len(nbr) { // duplicates left slack: keep only the 2m ids
		nbr = slices.Clone(nbr[:end])
	}
	labels := slices.Clone(b.labels)
	return &Graph{
		id:     b.id,
		labels: labels,
		off:    off,
		nbr:    nbr,
		sig:    labelSignature(labels),
		esig:   edgeSignature(labels, off, nbr),
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
