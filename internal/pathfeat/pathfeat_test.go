package pathfeat

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphcache/internal/graph"
)

// Encode converts a label sequence into a Key.
func Encode(labels []graph.Label) Key {
	b := make([]byte, 2*len(labels))
	for i, l := range labels {
		b[2*i] = byte(l >> 8)
		b[2*i+1] = byte(l)
	}
	return Key(b)
}

// Decode converts a Key back to its label sequence.
func Decode(k Key) []graph.Label {
	labels := make([]graph.Label, len(k)/2)
	for i := range labels {
		labels[i] = graph.Label(k[2*i])<<8 | graph.Label(k[2*i+1])
	}
	return labels
}

// KeyLen returns the number of labels encoded in k.
func KeyLen(k Key) int { return len(k) / 2 }

// Hash is HashVector's definition over Counts: each (feature, count) pair
// is hashed on its own and the pair hashes combine with XOR, so the result
// is independent of map iteration order.
func Hash(c Counts) uint64 {
	var h uint64
	for k, n := range c {
		h ^= mixPair(keyBytesHash(k), n)
	}
	return h
}

// Dominates reports whether have satisfies the filtering condition for
// want: every feature of want occurs in have at least as often.
func Dominates(have, want Counts) bool {
	for k, c := range want {
		if have[k] < c {
			return false
		}
	}
	return true
}

// Locations maps each path feature to the sorted set of vertices covered
// by at least one of its occurrences.
type Locations map[Key][]int32

// SimplePathsWithLocations is the string-keyed definition of
// SimplePathLocations: it counts directed simple paths and records the
// vertices their occurrences cover.
func SimplePathsWithLocations(g *graph.Graph, maxLen int) (Counts, Locations) {
	c := make(Counts)
	locs := make(Locations)
	enumerate(g, maxLen, func(path []int32, key Key) {
		c[key]++
		locs[key] = append(locs[key], path...)
	})
	for k, vs := range locs {
		slices.Sort(vs)
		locs[k] = slices.Compact(vs)
	}
	return c, locs
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

func key(labels ...graph.Label) Key { return Encode(labels) }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		labels := make([]graph.Label, len(raw))
		for i, v := range raw {
			labels[i] = graph.Label(v)
		}
		dec := Decode(Encode(labels))
		if len(dec) != len(labels) {
			return false
		}
		for i := range labels {
			if dec[i] != labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashOrderIndependentAndIsomorphismInvariant(t *testing.T) {
	// The same path built with vertices in reverse order is isomorphic and
	// must hash identically — the exact lookup depends on it.
	a := SimplePaths(path(1, 2, 3, 4), 4)
	b := SimplePaths(path(4, 3, 2, 1), 4)
	if Hash(a) != Hash(b) {
		t.Error("isomorphic graphs must share a feature hash")
	}
	if Hash(SimplePaths(path(1, 2), 4)) == Hash(SimplePaths(path(1, 3), 4)) {
		t.Error("distinct feature sets should hash apart")
	}
	// Counts matter, not just feature presence.
	c1 := Counts{key(1): 1}
	c2 := Counts{key(1): 2}
	if Hash(c1) == Hash(c2) {
		t.Error("changing a count must change the hash")
	}
	if Hash(Counts{}) != 0 || Hash(nil) != 0 {
		t.Error("empty feature set must hash to 0")
	}
}

func TestKeyLen(t *testing.T) {
	if KeyLen(key(1, 2, 3)) != 3 {
		t.Error("KeyLen of 3-label key must be 3")
	}
	if KeyLen(key()) != 0 {
		t.Error("KeyLen of empty key must be 0")
	}
}

func TestSimplePathsP3(t *testing.T) {
	g := path(1, 2, 3)
	c := SimplePaths(g, 2)
	want := map[Key]int32{
		key(1): 1, key(2): 1, key(3): 1,
		key(1, 2): 1, key(2, 1): 1, key(2, 3): 1, key(3, 2): 1,
		key(1, 2, 3): 1, key(3, 2, 1): 1,
	}
	if len(c) != len(want) {
		t.Fatalf("got %d features, want %d: %v", len(c), len(want), decodeAll(c))
	}
	for k, n := range want {
		if c[k] != n {
			t.Errorf("count(%v) = %d, want %d", Decode(k), c[k], n)
		}
	}
}

func TestSimplePathsRespectsMaxLen(t *testing.T) {
	g := path(1, 2, 3, 4, 5)
	c := SimplePaths(g, 2)
	for k := range c {
		if KeyLen(k) > 3 {
			t.Errorf("feature %v longer than maxLen+1 labels", Decode(k))
		}
	}
	if _, ok := c[key(1, 2, 3, 4)]; ok {
		t.Error("length-3 path present despite maxLen=2")
	}
}

func TestSimplePathsCountsBothDirections(t *testing.T) {
	g := path(7, 7) // single edge, equal labels
	c := SimplePaths(g, 1)
	if c[key(7, 7)] != 2 {
		t.Errorf("edge with equal labels must count twice (both directions), got %d", c[key(7, 7)])
	}
}

func TestSimplePathsAreSimple(t *testing.T) {
	// Triangle with distinct labels: no path may revisit a vertex, so the
	// longest features have 3 labels even with maxLen=5.
	b := graph.NewBuilder()
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddVertex(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	c := SimplePaths(g, 5)
	for k := range c {
		if KeyLen(k) > 3 {
			t.Fatalf("simple path enumeration revisited a vertex: %v", Decode(k))
		}
	}
}

func TestDominatesSubgraphProperty(t *testing.T) {
	// The core filter-correctness invariant: if q is a subgraph of g, g's
	// features dominate q's.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 5+r.Intn(12), 3, 0.3)
		q := extractSubgraph(r, g, 2+r.Intn(4))
		return Dominates(SimplePaths(g, 4), SimplePaths(q, 4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLocationsCoverPathVertices(t *testing.T) {
	g := path(1, 2, 3)
	_, locs := SimplePathsWithLocations(g, 2)
	l := locs[key(1, 2, 3)]
	if len(l) != 3 {
		t.Fatalf("locations of the full path must cover all 3 vertices, got %v", l)
	}
	for i, v := range l {
		if v != int32(i) {
			t.Errorf("locations must be sorted vertex ids, got %v", l)
		}
	}
	if len(locs[key(1)]) != 1 || locs[key(1)][0] != 0 {
		t.Errorf("single-label feature must locate its vertex, got %v", locs[key(1)])
	}
}

func TestLocationsConsistentWithCounts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 4+r.Intn(8), 2, 0.4)
		c1 := SimplePaths(g, 3)
		c2, locs := SimplePathsWithLocations(g, 3)
		if len(c1) != len(c2) {
			return false
		}
		for k, n := range c1 {
			if c2[k] != n {
				return false
			}
			if len(locs[k]) == 0 {
				return false
			}
			// Locations must be valid sorted vertex ids.
			prev := int32(-1)
			for _, v := range locs[k] {
				if v <= prev || int(v) >= g.NumVertices() {
					return false
				}
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func decodeAll(c Counts) map[string]int32 {
	out := make(map[string]int32, len(c))
	for k, n := range c {
		out[string(rune('A'))+keyString(k)] = n
	}
	return out
}

func keyString(k Key) string {
	s := ""
	for _, l := range Decode(k) {
		s += string(rune('a' + int(l)))
	}
	return s
}

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

// extractSubgraph returns a connected (when possible) non-induced subgraph.
func extractSubgraph(r *rand.Rand, g *graph.Graph, maxV int) *graph.Graph {
	if g.NumVertices() == 0 {
		return graph.NewBuilder().MustBuild()
	}
	order := g.BFSOrder(int32(r.Intn(g.NumVertices())))
	if len(order) > maxV {
		order = order[:maxV]
	}
	idx := make(map[int32]int32, len(order))
	b := graph.NewBuilder()
	for i, v := range order {
		idx[v] = int32(i)
		b.AddVertex(g.Label(v))
	}
	for _, v := range order {
		for _, w := range g.Neighbors(v) {
			nw, ok := idx[w]
			if ok && idx[v] < nw && r.Float64() < 0.85 {
				b.AddEdge(idx[v], nw)
			}
		}
	}
	return b.MustBuild()
}
