package iso

import (
	"slices"

	"graphcache/internal/graph"
)

// VF2Plus is the tuned VF2 variant shipped with CT-Index [Klein et al.,
// ICDE 2011]: it precomputes a static pattern-vertex order (rarest target
// label first, then highest degree, kept connected) and draws candidates
// from the neighbourhood of an already-mapped neighbour's image instead of
// scanning the whole target. Feasibility rules are those of VF2.
type VF2Plus struct{}

// Name implements Algorithm.
func (VF2Plus) Name() string { return "vf2plus" }

// FindEmbedding implements Algorithm.
func (VF2Plus) FindEmbedding(pattern, target *graph.Graph) ([]int32, bool) {
	n := pattern.NumVertices()
	if n == 0 {
		return []int32{}, true
	}
	if quickReject(pattern, target) {
		return nil, false
	}
	var (
		core1, order [stackPattern]int32
		used         [stackTarget]bool
	)
	st := vf2pState{
		p:     pattern,
		t:     target,
		order: scratch(order[:], n),
		core1: fill(scratch(core1[:], n), -1),
		used:  scratch(used[:], target.NumVertices()),
	}
	vf2plusOrder(pattern, target, st.order)
	if st.match(0) {
		return slices.Clone(st.core1), true
	}
	return nil, false
}

type vf2pState struct {
	p, t  *graph.Graph
	order []int32
	core1 []int32
	used  []bool
}

// vf2plusOrder fills order (one slot per pattern vertex) with the static
// matching order: score vertices by (target frequency of their label
// ascending, degree descending), then greedily build a connected order
// starting from the best-scored vertex.
func vf2plusOrder(p, t *graph.Graph, order []int32) {
	n := p.NumVertices()
	var (
		freqBuf           [stackPattern]int
		chosenBuf, adjBuf [stackPattern]bool
	)
	freq := scratch(freqBuf[:], n) // target frequency of each pattern vertex's label
	chosen := scratch(chosenBuf[:], n)
	adjacent := scratch(adjBuf[:], n)
	for u := range freq {
		freq[u] = t.LabelCount(p.Label(int32(u)))
	}
	better := func(a, b int32) bool {
		fa, fb := freq[a], freq[b]
		if fa != fb {
			return fa < fb // rarer label first
		}
		if p.Degree(a) != p.Degree(b) {
			return p.Degree(a) > p.Degree(b) // higher degree first
		}
		return a < b
	}
	for k := range order {
		best := int32(-1)
		// Prefer vertices adjacent to the chosen set to keep the order
		// connected; fall back to any unchosen vertex (new component).
		for u := int32(0); int(u) < n; u++ {
			if chosen[u] || !adjacent[u] {
				continue
			}
			if best == -1 || better(u, best) {
				best = u
			}
		}
		if best == -1 {
			for u := int32(0); int(u) < n; u++ {
				if chosen[u] {
					continue
				}
				if best == -1 || better(u, best) {
					best = u
				}
			}
		}
		chosen[best] = true
		order[k] = best
		for _, w := range p.Neighbors(best) {
			adjacent[w] = true
		}
	}
}

func (st *vf2pState) match(depth int) bool {
	if depth == len(st.order) {
		return true
	}
	u := st.order[depth]
	// Find the mapped neighbour of u with the smallest image degree; its
	// image's neighbourhood is the candidate pool.
	anchor := int32(-1)
	for _, w := range st.p.Neighbors(u) {
		if m := st.core1[w]; m != -1 {
			if anchor == -1 || st.t.Degree(m) < st.t.Degree(anchor) {
				anchor = m
			}
		}
	}
	if anchor != -1 {
		for _, v := range st.t.Neighbors(anchor) {
			if st.try(depth, u, v) {
				return true
			}
		}
		return false
	}
	for v := int32(0); int(v) < st.t.NumVertices(); v++ {
		if st.try(depth, u, v) {
			return true
		}
	}
	return false
}

// try maps u to v if the pair is feasible and extends the mapping from
// there, undoing it if no embedding follows.
func (st *vf2pState) try(depth int, u, v int32) bool {
	if st.used[v] || !st.feasible(u, v) {
		return false
	}
	st.core1[u] = v
	st.used[v] = true
	if st.match(depth + 1) {
		return true
	}
	st.core1[u] = -1
	st.used[v] = false
	return false
}

func (st *vf2pState) feasible(u, v int32) bool {
	if st.p.Label(u) != st.t.Label(v) {
		return false
	}
	if st.p.Degree(u) > st.t.Degree(v) {
		return false
	}
	for _, w := range st.p.Neighbors(u) {
		if m := st.core1[w]; m != -1 && !st.t.HasEdge(v, m) {
			return false
		}
	}
	return true
}
