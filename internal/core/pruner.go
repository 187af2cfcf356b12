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
// prune appends to removed, for each matched cached query in turn —
// providers, then restrictors, in the order given — what it removed from
// the candidate set: the number of dataset graphs and their estimated
// sub-iso cost under cost, the R and C the Statistics Monitor credits it
// (§5.2). The attribution is positional, so a cached query that is both a
// provider and a restrictor (an isomorphic repeat, when the exact lookup
// is off) is credited each of its two removals once. Eq. (1) is applied to
// csM first, then Eq. (2) to the remainder, matching the paper's Candidate
// Set Pruner; restrictor removals are measured against the post-Eq.(1)
// set, independently per restrictor. Each cost is summed in ascending ID
// order.
//
// Only direct and cs are allocated, and only when they differ from a
// single provider's answer and from csM: with no matched query, cs is csM
// itself. Neither may be written to.
func prune(csM []int32, providers, restrictors []*entry, cost costRow, removed []removal) (direct, cs []int32, _ []removal) {
	for _, p := range providers {
		removed = append(removed, removedCommon(p.answer, csM, cost))
	}
	if len(providers) > 0 {
		direct = providers[0].answer
		for _, p := range providers[1:] {
			direct = unionSorted(direct, p.answer)
		}
	}
	cs = csM
	if len(direct) > 0 {
		cs = subtractSorted(csM, direct)
	}
	for _, r := range restrictors {
		removed = append(removed, removedMissing(cs, r.answer, cost))
	}
	owned := len(direct) > 0 // cs is prune's own copy, not csM
	for _, r := range restrictors {
		if owned {
			cs = intersectInPlace(cs, r.answer)
		} else {
			cs, owned = intersectSorted(cs, r.answer), true
		}
	}
	return direct, cs, removed
}

// removal is what one matched cached query took out of a candidate set:
// n dataset graphs of summed estimated sub-iso cost.
type removal struct {
	n    int
	cost float64
}

// removedCommon returns |a ∩ b| and the cost of a ∩ b, summed in ascending
// order, without building the intersection.
func removedCommon(a, b []int32, cost costRow) removal {
	var r removal
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			r.n++
			r.cost += cost.of(a[i])
			i++
			j++
		}
	}
	return r
}

// removedMissing returns |a \ b| and the cost of a \ b, summed in
// ascending order, without building the difference.
func removedMissing(a, b []int32, cost costRow) removal {
	var r removal
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		r.n++
		r.cost += cost.of(x)
	}
	return r
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
