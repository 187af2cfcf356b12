package core

// prune applies the candidate-set pruning of §5.1 to Method M's candidate
// set csM.
//
// providers are verified cached queries whose answer sets transfer
// directly to the new query (for subgraph queries: cached g' ⊇ q, Eq. 1;
// for supergraph queries: cached g” ⊆ q). Their answers are removed from
// the candidate set and become definite answers.
//
// restrictors are verified cached queries whose answer sets bound the new
// query's answers (for subgraph queries: cached g” ⊆ q, Eq. 2; for
// supergraph queries: cached g' ⊇ q): any candidate outside a restrictor's
// answer set is provably not an answer and is dropped.
//
// removed holds, for each matched cached query in turn — providers, then
// restrictors, in the order given — the exact dataset graphs it removed
// from the candidate set: the Statistics Monitor credits R and C by this
// attribution (§5.2). It is positional, so a cached query that is both a
// provider and a restrictor (an isomorphic repeat, when the exact lookup
// is off) is credited each of its two removals once. Eq. (1) is applied to
// csM first, then Eq. (2) to the remainder, matching the paper's Candidate
// Set Pruner; restrictor removals are measured against the post-Eq.(1)
// set, independently per restrictor.
func prune(csM []int32, providers, restrictors []*entry) (direct, cs []int32, removed [][]int32) {
	removed = make([][]int32, 0, len(providers)+len(restrictors))
	for _, p := range providers {
		removed = append(removed, intersectSorted(p.answer, csM))
		direct = unionSorted(direct, p.answer)
	}
	cs = subtractSorted(csM, direct)
	afterEq1 := cs
	for _, r := range restrictors {
		removed = append(removed, subtractSorted(afterEq1, r.answer))
		cs = intersectSorted(cs, r.answer)
	}
	return direct, cs, removed
}

// findEmptyAnswer returns the first entry with an empty answer set, or
// nil. For subgraph queries, a contained cached query with no answers
// proves the new query has no answers either (§5.1, special case 2); for
// supergraph queries the same holds for a containing cached query.
func findEmptyAnswer(entries []*entry) *entry {
	for _, e := range entries {
		if len(e.answer) == 0 {
			return e
		}
	}
	return nil
}
