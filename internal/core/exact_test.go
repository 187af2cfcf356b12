package core

import (
	"slices"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// findExact is how the pipeline found special case 1 before the lookup
// replaced it: a verified container or containee with the same vertex and
// edge counts as q — which, combined with containment, proves isomorphism
// (§5.1) — or nil. Kept as the reference the lookup is tested against.
func findExact(nV, nE int, containers, containees []*entry) *entry {
	for _, e := range containers {
		if e.g.NumVertices() == nV && e.g.NumEdges() == nE {
			return e
		}
	}
	for _, e := range containees {
		if e.g.NumVertices() == nV && e.g.NumEdges() == nE {
			return e
		}
	}
	return nil
}

// exactByProbe is the replaced path end to end: probe ix, confirm every
// candidate, findExact over the confirmed lists.
func exactByProbe(c *Cache, ix *queryIndex, q *graph.Graph) *entry {
	checks, nSub := c.probe(ix, pathfeat.SimplePathVector(q, maxPathLen))
	var containers, containees []*entry
	for _, e := range checks[:nSub] {
		if iso.Contains(c.algo, q, e.g) {
			containers = append(containers, e)
		}
	}
	for _, e := range checks[nSub:] {
		if iso.Contains(c.algo, e.g, q) {
			containees = append(containees, e)
		}
	}
	return findExact(q.NumVertices(), q.NumEdges(), containers, containees)
}

// exactByLookup is the pipeline's lookup over ix, keyed by q.IsoKey().
func exactByLookup(c *Cache, ix *queryIndex, q *graph.Graph) *entry {
	return ix.exact(q.IsoKey(), q.NumVertices(), q.NumEdges(), func(e *entry) bool {
		return iso.Contains(c.algo, q, e.g)
	})
}

// TestExactLookupAgreesWithProbe is the differential test behind deleting
// findExact from the pipeline: over a seeded cache and over every kind of
// index generation — window deltas with evictions, a delta evicting more
// than half of the index, a from-scratch build, and the entry-replacing
// generations a dataset mutation publishes — the lookup returns the very
// entry the old path found among the fully confirmed probe lists. After a
// mutation that entry must be the repaired one.
func TestExactLookupAgreesWithProbe(t *testing.T) {
	ds := moleculeDataset(60, 31)
	m := ggsx.New(ds, ggsx.Options{})
	c := New(m, Options{CacheSize: 12, WindowSize: 4})
	queries := typeAWorkload(ds, "ZZ", 160, 32)

	hits := 0
	agree := func(what string, ix *queryIndex) {
		t.Helper()
		for i, q := range queries {
			want, got := exactByProbe(c, ix, q.Graph), exactByLookup(c, ix, q.Graph)
			if got != want {
				t.Fatalf("%s, query %d: lookup found %v, the confirmed probe lists %v", what, i, got, want)
			}
			if got != nil {
				hits++
			}
		}
	}

	for i, q := range queries {
		c.Query(q.Graph)
		if i%8 == 7 {
			agree("window deltas", c.index.Load())
		}
	}
	if ev := c.Totals().Evicted; ev == 0 || hits == 0 {
		t.Fatalf("the stream exercised too little: %d evictions, %d exact hits", ev, hits)
	}

	// A delta evicting more than half of the index, and a rebuild over a
	// copy of the contents. Neither is published: the cache stays as the
	// stream left it for the mutations below.
	ix := c.index.Load()
	agree("half evicted", ix.applyDelta(nil, ix.serials[:len(ix.serials)/2+1]))
	agree("from-scratch build", buildQueryIndex(slices.Clone(ix.slotEntry)))

	// Dataset mutations publish withSlotEntries generations: the
	// lookup must keep finding the same serials, now carrying the
	// repaired answers.
	added, err := c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone(), ds.Graph(7).Clone()})
	if err != nil {
		t.Fatal(err)
	}
	removed, err := c.RemoveGraphs([]int32{3, 11, 19})
	if err != nil {
		t.Fatal(err)
	}
	if added.Extended == 0 || removed.Invalidated == 0 {
		t.Fatalf("the mutations replaced no cached entry: %+v, %+v", added, removed)
	}
	ix = c.index.Load()
	agree("entry-replacing mutations", ix)
	repaired := 0
	for i, q := range queries {
		hit := exactByLookup(c, ix, q.Graph)
		if hit == nil {
			continue
		}
		repaired++
		want := method.Answer(m, q.Graph)
		if !eq(hit.answer, want) {
			t.Fatalf("query %d: the lookup's entry carries %v, the mutated dataset answers %v", i, hit.answer, want)
		}
		if r := c.Query(q.Graph); !r.Stats.ExactHit || !eq(r.Answer, want) {
			t.Fatalf("query %d: Query after the mutations: exact hit %v, answer %v, want %v", i, r.Stats.ExactHit, r.Answer, want)
		}
	}
	if repaired == 0 {
		t.Fatalf("no exact hit survived the mutations")
	}
}

// cycles returns the disjoint union of uniformly labelled cycles of the
// given lengths.
func cycles(l graph.Label, lengths ...int) *graph.Graph {
	b := graph.NewBuilder().SetID(-1)
	base := int32(0)
	for _, n := range lengths {
		for i := 0; i < n; i++ {
			b.AddVertex(l)
		}
		for i := 0; i < n; i++ {
			b.AddEdge(base+int32(i), base+int32((i+1)%n))
		}
		base += int32(n)
	}
	return b.MustBuild()
}

// TestExactLookupRejectsEqualHashNonIsomorphic: a uniformly labelled C10
// and C5 + C5 have the same vertex and edge counts and are both 2-regular,
// so colour refinement gives every vertex of both the same colour — equal
// keys — and they are not isomorphic. Key equality alone must never
// answer: each must miss against the other and still hit against itself.
func TestExactLookupRejectsEqualHashNonIsomorphic(t *testing.T) {
	ds := moleculeDataset(30, 33)
	m := method.NewVF2Plus(ds)
	l := ds.Graph(0).Label(0)
	c10, c55 := cycles(l, 10), cycles(l, 5, 5)
	if c10.IsoKey() != c55.IsoKey() ||
		c10.NumVertices() != c55.NumVertices() || c10.NumEdges() != c55.NumEdges() {
		t.Fatal("C10 and C5+C5 no longer collide; the test needs another pair")
	}
	for _, pair := range [][2]*graph.Graph{{c10, c55}, {c55, c10}} {
		cached, other := pair[0], pair[1]
		c := New(m, Options{CacheSize: 4, WindowSize: 1})
		c.Query(cached) // W = 1: cached on return
		r := c.Query(other)
		if r.Stats.ExactHit {
			t.Fatal("a query exact-hit a non-isomorphic cached query of equal key and size")
		}
		if !eq(r.Answer, method.Answer(m, other)) {
			t.Fatalf("answer %v, want %v", r.Answer, method.Answer(m, other))
		}
		// The refuted lookup confirmation is counted, next to the probe's
		// two (the cached query is both a sub- and a super-candidate).
		if r.Stats.GCVerifications != 3 {
			t.Errorf("GCVerifications = %d on a refuted lookup, want 3", r.Stats.GCVerifications)
		}
		if r := c.Query(cached); !r.Stats.ExactHit || r.Stats.GCVerifications != 1 {
			t.Errorf("the cached query itself: exact hit %v with %d GC verifications, want a hit with 1", r.Stats.ExactHit, r.Stats.GCVerifications)
		}
	}
}

// TestExactHitsEnumerateNoPaths: the exact lookup is keyed by IsoKey, so a
// query it answers never has its simple paths enumerated. After warming, a
// batch of exact repeats leaves pathfeat's enumeration counter where it
// was, and a mixed batch advances it by exactly its open-query count: one
// extraction per query the lookup left open, shared by the filter, the
// probe and the new entry. VF2+ filters without path features, so every
// enumeration counted is the cache's.
func TestExactHitsEnumerateNoPaths(t *testing.T) {
	ds := moleculeDataset(40, 41)
	queries := typeAWorkload(ds, "UU", 60, 42)
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 100, WindowSize: 5})
	warm := make([]*graph.Graph, 0, 40)
	for _, q := range queries[:40] {
		warm = append(warm, q.Graph)
	}
	c.QueryBatch(warm)
	c.Flush()

	var repeats []*graph.Graph
	for _, g := range warm {
		if r := c.Query(g); r.Stats.ExactHit {
			repeats = append(repeats, g)
		}
	}
	if len(repeats) < 10 {
		t.Fatalf("only %d of %d warmed queries exact-hit", len(repeats), len(warm))
	}
	before := pathfeat.SimplePathsCalls()
	for i, r := range c.QueryBatch(repeats) {
		if !r.Stats.ExactHit {
			t.Fatalf("repeat %d missed", i)
		}
	}
	if got := pathfeat.SimplePathsCalls() - before; got != 0 {
		t.Errorf("a batch of %d exact repeats enumerated paths %d times, want 0", len(repeats), got)
	}

	mixed := make([]*graph.Graph, 0, 2*len(repeats))
	for i, g := range repeats {
		mixed = append(mixed, g, queries[40+i%20].Graph)
	}
	before = pathfeat.SimplePathsCalls()
	open := 0
	for _, r := range c.QueryBatch(mixed) {
		if !r.Stats.ExactHit {
			open++
		}
	}
	if open == 0 || open == len(mixed) {
		t.Fatalf("the mixed batch has %d open queries of %d; want some of each", open, len(mixed))
	}
	if got := pathfeat.SimplePathsCalls() - before; got != int64(open) {
		t.Errorf("a batch with %d open queries enumerated paths %d times, want %d", open, got, open)
	}
}

// regularGraph builds a uniformly labelled d-regular graph on n vertices
// as a disjoint union of circulant graphs, the component sizes and jumps
// drawn from spec; ok is false when no d-regular graph on n vertices
// exists (d ≥ n, or d and n both odd). A component of m vertices joins
// each vertex i to i ± s (mod m) for ⌊d/2⌋ distinct jumps s < m/2, plus
// its opposite i + m/2 when d is odd, which every component's even size
// allows.
func regularGraph(l graph.Label, n, d int, spec []byte) (g *graph.Graph, ok bool) {
	if d >= n || d%2 == 1 && n%2 == 1 {
		return nil, false
	}
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	minM := d + 1 + d%2 // the smallest component: K_{d+1}, of even size when d is odd
	b := graph.NewBuilder().SetID(-1)
	for base, left := 0, n; left > 0; {
		m := left // the rest, or — if there is room for two — maybe a smaller part
		if left >= 2*minM {
			if k := next() % (left - 2*minM + 2); k <= left-2*minM {
				m = minM + k
				m += d % 2 * (m % 2) // odd d: even sizes only
			}
		}
		for i := 0; i < m; i++ {
			b.AddVertex(l)
		}
		jumps := make([]int, 0, (m-1)/2)
		for s := 1; 2*s < m; s++ {
			jumps = append(jumps, s)
		}
		for k := 0; k < d/2; k++ { // ⌊d/2⌋ distinct jumps, chosen by spec
			j := next() % len(jumps)
			s := jumps[j]
			jumps = append(jumps[:j], jumps[j+1:]...)
			for i := 0; i < m; i++ {
				b.AddEdge(int32(base+i), int32(base+(i+s)%m))
			}
		}
		if d%2 == 1 {
			for i := 0; i < m/2; i++ {
				b.AddEdge(int32(base+i), int32(base+i+m/2))
			}
		}
		base, left = base+m, left-m
	}
	return b.MustBuild(), true
}

// FuzzExactLookupCollisions generalises
// TestExactLookupRejectsEqualHashNonIsomorphic: two uniformly labelled
// d-regular graphs on n vertices look alike to colour refinement, so they
// share IsoKey whether or not they are isomorphic. With one cached and the
// other queried, the query's answer must be the bare method's, and it
// must exact-hit exactly when the two are isomorphic.
func FuzzExactLookupCollisions(f *testing.F) {
	// n and d map to 4 + n%13 vertices of degree 2 + d%3.
	f.Add(uint8(2), uint8(0), []byte{1}, []byte{0})       // C6 against C3 + C3
	f.Add(uint8(6), uint8(0), []byte{5}, []byte{2})       // C10 against C5 + C5
	f.Add(uint8(6), uint8(0), []byte{5}, []byte{5})       // C10 against itself
	f.Add(uint8(4), uint8(1), []byte{0}, []byte{1})       // K4 + K4 against the Möbius ladder on 8
	f.Add(uint8(8), uint8(2), []byte{9, 1}, []byte{9, 2}) // two 4-regular circulants on 12
	base := moleculeDataset(12, 33)
	l := base.Graph(0).Label(0)
	f.Fuzz(func(t *testing.T, n, d uint8, spec1, spec2 []byte) {
		nv, deg := 4+int(n)%13, 2+int(d)%3 // 4..16 vertices, degree 2..4
		g1, ok1 := regularGraph(l, nv, deg, spec1)
		g2, ok2 := regularGraph(l, nv, deg, spec2)
		if !ok1 || !ok2 {
			return
		}
		if g1.IsoKey() != g2.IsoKey() {
			t.Fatalf("two uniformly labelled %d-regular graphs on %d vertices have different keys", deg, nv)
		}
		graphs := []*graph.Graph{g1.Clone(), g2.Clone()}
		for id := 0; id < base.Len(); id++ {
			graphs = append(graphs, base.Graph(int32(id)).Clone())
		}
		m := method.NewVF2Plus(dataset.New(graphs))
		c := New(m, Options{CacheSize: 4, WindowSize: 1})
		c.Query(g1) // W = 1: cached on return
		r := c.Query(g2)
		if want := method.Answer(m, g2); !eq(r.Answer, want) {
			t.Fatalf("answer %v, want %v", r.Answer, want)
		}
		if isomorphic := iso.Isomorphic(iso.VF2{}, g1, g2); r.Stats.ExactHit != isomorphic {
			t.Fatalf("exact hit %v for graphs with isomorphic = %v", r.Stats.ExactHit, isomorphic)
		}
	})
}
