package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"graphcache/internal/dataset"
)

// Property-based tests for the candidate-set pruning algebra (§5.1) and
// the sorted-set primitives beneath it. Each property is checked against
// a brute-force map-based reference on randomly generated inputs.

// sortedIDs is a generator-friendly wrapper: testing/quick fills the raw
// slice, normalise() turns it into a valid sorted duplicate-free ID set.
type sortedIDs []int32

func (s sortedIDs) normalise() []int32 {
	seen := make(map[int32]bool, len(s))
	out := make([]int32, 0, len(s))
	for _, v := range s {
		v &= 0x3f // small domain so sets actually intersect
		if v < 0 || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func toSet(ids []int32) map[int32]bool {
	m := make(map[int32]bool, len(ids))
	for _, v := range ids {
		m[v] = true
	}
	return m
}

func fromSet(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestSetOpsAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	prop := func(ra, rb sortedIDs) bool {
		a, b := ra.normalise(), rb.normalise()
		sa, sb := toSet(a), toSet(b)

		wantInter := map[int32]bool{}
		for v := range sa {
			if sb[v] {
				wantInter[v] = true
			}
		}
		wantSub := map[int32]bool{}
		for v := range sa {
			if !sb[v] {
				wantSub[v] = true
			}
		}
		wantUnion := map[int32]bool{}
		for v := range sa {
			wantUnion[v] = true
		}
		for v := range sb {
			wantUnion[v] = true
		}

		return equalIDs(intersectSorted(a, b), fromSet(wantInter)) &&
			equalIDs(subtractSorted(a, b), fromSet(wantSub)) &&
			equalIDs(unionSorted(a, b), fromSet(wantUnion))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSetOpsAlgebraicLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(ra, rb sortedIDs) bool {
		a, b := ra.normalise(), rb.normalise()
		// Commutativity.
		if !equalIDs(intersectSorted(a, b), intersectSorted(b, a)) {
			return false
		}
		if !equalIDs(unionSorted(a, b), unionSorted(b, a)) {
			return false
		}
		// Idempotence.
		if !equalIDs(intersectSorted(a, a), a) || !equalIDs(unionSorted(a, a), a) {
			return false
		}
		// a \ b is disjoint from b and unions with a∩b back to a.
		if len(intersectSorted(subtractSorted(a, b), b)) != 0 {
			return false
		}
		return equalIDs(unionSorted(subtractSorted(a, b), intersectSorted(a, b)), a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// randomEntries builds n cache entries with random answer sets (graphs
// are irrelevant to the pruning algebra). Serials start at base: cache
// serials are globally unique, so providers and restrictors must not
// collide.
func randomEntries(r *rand.Rand, n int, base int64) []*entry {
	es := make([]*entry, n)
	for i := range es {
		raw := make(sortedIDs, r.Intn(20))
		for j := range raw {
			raw[j] = int32(r.Intn(64))
		}
		es[i] = &entry{serial: base + int64(i), answer: raw.normalise()}
	}
	return es
}

// costFixture is the cost model over a small generated dataset, bound to
// a query of n vertices, beside the dataset the reference prices from.
type costFixture struct {
	ds  *dataset.Dataset
	n   int
	row costRow
}

// newCostFixture classes 80 generated molecules (IDs 0–79, enough for
// the ID domain of sortedIDs) and binds the model to a 5-vertex query.
func newCostFixture(t testing.TB) costFixture {
	ds := moleculeDataset(80, 11)
	if ds.Len() < 64 {
		t.Fatalf("fixture dataset has %d graphs, want at least 64", ds.Len())
	}
	var m costModel
	for id := 0; id < ds.Len(); id++ {
		m.set(ds.Graph(int32(id)))
	}
	return costFixture{ds: ds, n: 5, row: m.forQuery(5)}
}

// candidateCosts applies the paper's cost model c(q, G), by its formula,
// to every dataset graph of csM for the fixture's query size, in csM's
// order: the form the pipeline derived credits and repeat costs from
// before the cost rows, kept as their reference.
func (f costFixture) candidateCosts(csM []int32) []float64 {
	costs := make([]float64, len(csM))
	for i, gid := range csM {
		g := f.ds.Graph(gid)
		costs[i] = EstimateSubIsoCost(f.n, g.NumVertices(), g.DistinctLabels())
	}
	return costs
}

// sumCostsOf adds up the costs of ids, a sorted subset of csM, in ids'
// order; costs is parallel to csM.
func sumCostsOf(ids, csM []int32, costs []float64) float64 {
	sum, j := 0.0, 0
	for _, id := range ids {
		for csM[j] != id {
			j++
		}
		sum += costs[j]
	}
	return sum
}

// checkRemovals compares prune's removals with the reference removal sets
// want, one per matched cached query: equal counts, and costs equal to the
// reference sums bit for bit.
func (f costFixture) checkRemovals(t *testing.T, csM []int32, got []removal, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d removals, want %d", len(got), len(want))
	}
	costs := f.candidateCosts(csM)
	for k, ids := range want {
		if got[k].n != len(ids) {
			t.Fatalf("removal %d counts %d graphs, want %d (%v)", k, got[k].n, len(ids), ids)
		}
		if w := sumCostsOf(ids, csM, costs); math.Float64bits(got[k].cost) != math.Float64bits(w) {
			t.Fatalf("removal %d costs %v, reference %v", k, got[k].cost, w)
		}
	}
}

// TestPruneAgainstReference checks prune() against the paper's equations
// computed naively:
//
//	direct = csM ∩ ⋃ providers.answer            (plus provider answers outside csM)
//	cs     = (csM \ ⋃ providers.answer) ∩ ⋂ restrictors.answer
//
// and its removals against the sets they count: csM ∩ answer for a
// provider, the post-Eq.(1) set minus the answer for a restrictor, priced
// by the reference cost model.
func TestPruneAgainstReference(t *testing.T) {
	f := newCostFixture(t)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		rawCS := make(sortedIDs, r.Intn(30))
		for j := range rawCS {
			rawCS[j] = int32(r.Intn(64))
		}
		csM := rawCS.normalise()
		providers := randomEntries(r, r.Intn(4), 1)
		restrictors := randomEntries(r, r.Intn(4), 1000)

		direct, cs, removed := prune(csM, providers, restrictors, f.row, nil)

		// Reference: union of provider answers.
		provUnion := map[int32]bool{}
		for _, p := range providers {
			for _, v := range p.answer {
				provUnion[v] = true
			}
		}
		wantDirect := fromSet(provUnion)
		if !equalIDs(direct, wantDirect) {
			t.Fatalf("trial %d: direct = %v, want %v", trial, direct, wantDirect)
		}

		// Reference: candidates surviving Eq. (1) then Eq. (2).
		want := map[int32]bool{}
		for _, v := range csM {
			if !provUnion[v] {
				want[v] = true
			}
		}
		for _, rr := range restrictors {
			ans := toSet(rr.answer)
			for v := range want {
				if !ans[v] {
					delete(want, v)
				}
			}
		}
		if !equalIDs(cs, fromSet(want)) {
			t.Fatalf("trial %d: cs = %v, want %v", trial, cs, fromSet(want))
		}

		// Attribution: a provider removed csM ∩ its answers; a restrictor
		// removed what survived Eq. (1) outside its answers.
		var wantRemoved [][]int32
		for _, p := range providers {
			ans := toSet(p.answer)
			common := map[int32]bool{}
			for _, v := range csM {
				if ans[v] {
					common[v] = true
				}
			}
			wantRemoved = append(wantRemoved, fromSet(common))
		}
		for _, rr := range restrictors {
			ans := toSet(rr.answer)
			missing := map[int32]bool{}
			for _, v := range csM {
				if !provUnion[v] && !ans[v] {
					missing[v] = true
				}
			}
			wantRemoved = append(wantRemoved, fromSet(missing))
		}
		f.checkRemovals(t, csM, removed, wantRemoved)

		// direct, cs disjoint; both sorted unique (normalise fixpoint).
		if len(intersectSorted(direct, cs)) != 0 {
			t.Fatalf("trial %d: direct %v and cs %v overlap", trial, direct, cs)
		}
	}
}

// TestPruneNoMatches degenerates to the bare method: the candidate set is
// csM itself.
func TestPruneNoMatches(t *testing.T) {
	f := newCostFixture(t)
	csM := []int32{1, 5, 9}
	direct, cs, removed := prune(csM, nil, nil, f.row, nil)
	if len(direct) != 0 || !reflect.DeepEqual(cs, csM) || &cs[0] != &csM[0] || len(removed) != 0 {
		t.Fatalf("prune with no cache matches changed the candidate set: %v %v %v",
			direct, cs, removed)
	}
}

// TestPruneRestrictorsWithEmptyAnswer: a restrictor with an empty answer
// set kills every candidate (the pruner-level view of special case 2).
func TestPruneRestrictorsWithEmptyAnswer(t *testing.T) {
	f := newCostFixture(t)
	csM := []int32{1, 2, 3}
	restr := []*entry{{serial: 7, answer: nil}}
	direct, cs, removed := prune(csM, nil, restr, f.row, nil)
	if len(direct) != 0 || len(cs) != 0 {
		t.Fatalf("empty-answer restrictor left candidates: direct=%v cs=%v", direct, cs)
	}
	f.checkRemovals(t, csM, removed, [][]int32{csM}) // credited all of csM
}

func equalIDs(a, b []int32) bool {
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
