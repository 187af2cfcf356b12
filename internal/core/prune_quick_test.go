package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
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

// TestPruneAgainstReference checks prune() against the paper's equations
// computed naively:
//
//	direct = csM ∩ ⋃ providers.answer            (plus provider answers outside csM)
//	cs     = (csM \ ⋃ providers.answer) ∩ ⋂ restrictors.answer
func TestPruneAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		rawCS := make(sortedIDs, r.Intn(30))
		for j := range rawCS {
			rawCS[j] = int32(r.Intn(64))
		}
		csM := rawCS.normalise()
		providers := randomEntries(r, r.Intn(4), 1)
		restrictors := randomEntries(r, r.Intn(4), 1000)

		direct, cs, removed := prune(csM, providers, restrictors)

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

		// Soundness of attribution: every provider credit is inside both
		// csM and that provider's answers; every restrictor credit is
		// outside that restrictor's answers.
		if len(removed) != len(providers)+len(restrictors) {
			t.Fatalf("trial %d: %d removal sets for %d providers and %d restrictors",
				trial, len(removed), len(providers), len(restrictors))
		}
		for i, p := range providers {
			for _, v := range removed[i] {
				if !toSet(csM)[v] || !toSet(p.answer)[v] {
					t.Fatalf("trial %d: provider %d wrongly credited %d", trial, p.serial, v)
				}
			}
		}
		for i, rr := range restrictors {
			ans := toSet(rr.answer)
			for _, v := range removed[len(providers)+i] {
				if ans[v] {
					t.Fatalf("trial %d: restrictor %d credited %d which its answers allow", trial, rr.serial, v)
				}
			}
		}

		// direct, cs disjoint; both sorted unique (normalise fixpoint).
		if len(intersectSorted(direct, cs)) != 0 {
			t.Fatalf("trial %d: direct %v and cs %v overlap", trial, direct, cs)
		}
	}
}

// TestPruneNoMatches degenerates to the bare method: candidates unchanged.
func TestPruneNoMatches(t *testing.T) {
	csM := []int32{1, 5, 9}
	direct, cs, removed := prune(csM, nil, nil)
	if len(direct) != 0 || !reflect.DeepEqual(cs, csM) || len(removed) != 0 {
		t.Fatalf("prune with no cache matches changed the candidate set: %v %v %v",
			direct, cs, removed)
	}
}

// TestPruneRestrictorsWithEmptyAnswer: a restrictor with an empty answer
// set kills every candidate (the pruner-level view of special case 2).
func TestPruneRestrictorsWithEmptyAnswer(t *testing.T) {
	csM := []int32{1, 2, 3}
	restr := []*entry{{serial: 7, answer: nil}}
	direct, cs, removed := prune(csM, nil, restr)
	if len(direct) != 0 || len(cs) != 0 {
		t.Fatalf("empty-answer restrictor left candidates: direct=%v cs=%v", direct, cs)
	}
	if !equalIDs(removed[0], csM) {
		t.Fatalf("restrictor should be credited all of csM, got %v", removed[0])
	}
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
