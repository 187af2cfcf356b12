package core

import (
	"maps"
	"slices"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

func pathG(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		b.AddEdge(int32(i-1), int32(i))
	}
	return b.MustBuild()
}

// candidates probes the index with the query's feature counts and
// returns, in ascending serial order, the sub-candidates (potential
// containers of q) and super-candidates (potentially contained in q): the
// allocating convenience around candidatesInto.
func (ix *queryIndex) candidates(qc pathfeat.Counts) (sub, super []int64) {
	var sc slotScratch
	subE, superE := ix.candidatesInto(pathfeat.VectorOf(qc), nil, nil, &sc)
	return serialsOf(subE), serialsOf(superE)
}

// serialsOf returns the entries' serials, in order.
func serialsOf(es []*entry) []int64 {
	var out []int64
	for _, e := range es {
		out = append(out, e.serial)
	}
	return out
}

// indexOf builds the index over a serial → entry map, the form tests keep
// cache contents in.
func indexOf(entries map[int64]*entry) *queryIndex {
	return buildQueryIndex(slices.Collect(maps.Values(entries)))
}

// contents returns the index's entries keyed by serial.
func (ix *queryIndex) contents() map[int64]*entry {
	m := make(map[int64]*entry, len(ix.serials))
	for slot, s := range ix.serials {
		m[s] = ix.slotEntry[slot]
	}
	return m
}

// entryOf returns the complete record of query g under serial, its
// feature vector extracted at path length 4, as the query path builds it.
func entryOf(serial int64, g *graph.Graph, answer ...int32) *entry {
	return newEntry(serial, g, answer, pathfeat.SimplePathVector(g, 4), g.IsoKey())
}

func TestQueryIndexCandidates(t *testing.T) {
	// Cache: 1 → P(1,2,3), 2 → P(1,2), 3 → P(7,8).
	entries := map[int64]*entry{
		1: entryOf(1, pathG(1, 2, 3)),
		2: entryOf(2, pathG(1, 2)),
		3: entryOf(3, pathG(7, 8)),
	}
	ix := indexOf(entries)
	if len(ix.serials) != 3 {
		t.Fatalf("size = %d", len(ix.serials))
	}

	// Query P(1,2): candidates containing it = {1, 2}; contained in it = {2}.
	sub, super := ix.candidates(pathfeat.SimplePaths(pathG(1, 2), 4))
	if !eq64(sub, []int64{1, 2}) {
		t.Errorf("sub candidates = %v, want [1 2]", sub)
	}
	if !eq64(super, []int64{2}) {
		t.Errorf("super candidates = %v, want [2]", super)
	}

	// Query P(1,2,3): sub = {1}; super = {1, 2}.
	sub, super = ix.candidates(pathfeat.SimplePaths(pathG(1, 2, 3), 4))
	if !eq64(sub, []int64{1}) {
		t.Errorf("sub candidates = %v, want [1]", sub)
	}
	if !eq64(super, []int64{1, 2}) {
		t.Errorf("super candidates = %v, want [1 2]", super)
	}

	// Query P(9): nothing matches.
	sub, super = ix.candidates(pathfeat.SimplePaths(pathG(9), 4))
	if len(sub) != 0 || len(super) != 0 {
		t.Errorf("unrelated query matched: sub=%v super=%v", sub, super)
	}
}

func TestQueryIndexEmpty(t *testing.T) {
	ix := buildQueryIndex(nil)
	sub, super := ix.candidates(pathfeat.SimplePaths(pathG(1, 2), 4))
	if sub != nil || super != nil {
		t.Error("empty index must return no candidates")
	}
}

func TestPruneSubgraphCaseFromFigure3a(t *testing.T) {
	// Figure 3(a): CS_M = {G1..G4}; cached g' ⊇ q with Answer = {G1, G2}.
	f := newCostFixture(t)
	csM := []int32{1, 2, 3, 4}
	gPrime := entryOf(7, pathG(1, 2), 1, 2)
	direct, cs, removed := prune(csM, []*entry{gPrime}, nil, f.row, nil)
	if !eq(direct, []int32{1, 2}) {
		t.Errorf("direct = %v, want [1 2]", direct)
	}
	if !eq(cs, []int32{3, 4}) {
		t.Errorf("cs = %v, want [3 4]", cs)
	}
	f.checkRemovals(t, csM, removed, [][]int32{{1, 2}})
}

func TestPruneSupergraphCaseFromFigure3b(t *testing.T) {
	// Figure 3(b): CS_M = {G1..G4}; cached g'' ⊆ q with Answer = {G1, G5}.
	// CS becomes CS_M ∩ {G1, G5} = {G1}; removed credit = {G2, G3, G4}.
	f := newCostFixture(t)
	csM := []int32{1, 2, 3, 4}
	gDblPrime := entryOf(9, pathG(1), 1, 5)
	direct, cs, removed := prune(csM, nil, []*entry{gDblPrime}, f.row, nil)
	if len(direct) != 0 {
		t.Errorf("direct = %v, want empty", direct)
	}
	if !eq(cs, []int32{1}) {
		t.Errorf("cs = %v, want [1]", cs)
	}
	f.checkRemovals(t, csM, removed, [][]int32{{2, 3, 4}})
}

func TestPruneCombinedOrder(t *testing.T) {
	// Eq.(1) first, then Eq.(2) on the remainder: restrictor credit must
	// be measured after the provider removed its answers.
	f := newCostFixture(t)
	csM := []int32{1, 2, 3, 4, 5}
	provider := entryOf(1, pathG(1), 1, 2) // direct: {1,2}
	restrictor := entryOf(2, pathG(2), 3)  // keeps only 3 of {3,4,5}
	direct, cs, removed := prune(csM, []*entry{provider}, []*entry{restrictor}, f.row, nil)
	if !eq(direct, []int32{1, 2}) {
		t.Errorf("direct = %v", direct)
	}
	if !eq(cs, []int32{3}) {
		t.Errorf("cs = %v, want [3]", cs)
	}
	// The restrictor removed {4, 5}, not 1 and 2: those were Eq. (1)'s.
	f.checkRemovals(t, csM, removed, [][]int32{{1, 2}, {4, 5}})
}

func TestPruneMultipleRestrictorsIntersect(t *testing.T) {
	f := newCostFixture(t)
	csM := []int32{1, 2, 3, 4}
	r1 := entryOf(1, pathG(1), 1, 2, 3)
	r2 := entryOf(2, pathG(2), 2, 3, 4)
	_, cs, removed := prune(csM, nil, []*entry{r1, r2}, f.row, nil)
	if !eq(cs, []int32{2, 3}) {
		t.Errorf("cs = %v, want [2 3]", cs)
	}
	f.checkRemovals(t, csM, removed, [][]int32{{4}, {1}})
}

func TestFindExactAndEmpty(t *testing.T) {
	e1 := entryOf(1, pathG(1, 2), 5)
	e2 := entryOf(2, pathG(1, 2, 3), 5, 6)
	if got := findExact(2, 1, []*entry{e2, e1}, nil); got != e1 {
		t.Error("findExact must match on vertex+edge counts")
	}
	if got := findExact(5, 4, []*entry{e1, e2}, nil); got != nil {
		t.Error("findExact must miss on size mismatch")
	}
	if got := findExact(3, 2, nil, []*entry{e2}); got != e2 {
		t.Error("findExact must search containees too")
	}
	empty := entryOf(3, pathG(9))
	if got := findEmptyAnswer([]*entry{e1, empty}); got != empty {
		t.Error("findEmptyAnswer must find the empty entry")
	}
	if got := findEmptyAnswer([]*entry{e1, e2}); got != nil {
		t.Error("findEmptyAnswer must return nil when all have answers")
	}
}

func eq64(a, b []int64) bool {
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
