package iso

import (
	"slices"

	"graphcache/internal/graph"
)

// VF2 is the classic VF2 state-space matcher [Cordella et al. 2004],
// restricted to the non-induced subgraph-isomorphism decision problem on
// undirected labelled graphs. Its cutting rules are the non-induced-safe
// subset of the original: terminal-set and remaining-set cardinality
// look-aheads.
type VF2 struct{}

// Name implements Algorithm.
func (VF2) Name() string { return "vf2" }

// FindEmbedding implements Algorithm.
func (VF2) FindEmbedding(pattern, target *graph.Graph) ([]int32, bool) {
	n := pattern.NumVertices()
	if n == 0 {
		return []int32{}, true
	}
	if quickReject(pattern, target) {
		return nil, false
	}
	nt := target.NumVertices()
	var (
		core1, tin1 [stackPattern]int32
		core2, tin2 [stackTarget]int32
	)
	st := vf2State{
		p:     pattern,
		t:     target,
		core1: fill(scratch(core1[:], n), -1),
		core2: fill(scratch(core2[:], nt), -1),
		tin1:  scratch(tin1[:], n),
		tin2:  scratch(tin2[:], nt),
	}
	if st.match(1) {
		return slices.Clone(st.core1), true
	}
	return nil, false
}

type vf2State struct {
	p, t         *graph.Graph
	core1, core2 []int32 // partial mapping, -1 = unmapped
	tin1, tin2   []int32 // depth at which vertex entered the terminal set (0 = never)
}

func fill(s []int32, v int32) []int32 {
	for i := range s {
		s[i] = v
	}
	return s
}

// match extends the mapping at the given depth (depth = #mapped + 1).
func (st *vf2State) match(depth int32) bool {
	if int(depth) > st.p.NumVertices() {
		return true
	}
	u := st.nextPatternVertex()
	if u < 0 {
		return false
	}
	fromTerminal := st.tin1[u] > 0
	for v := int32(0); int(v) < st.t.NumVertices(); v++ {
		if st.core2[v] != -1 {
			continue
		}
		if fromTerminal && st.tin2[v] == 0 {
			// A terminal pattern vertex has a mapped neighbour, so its
			// image must neighbour a mapped target vertex.
			continue
		}
		if !st.feasible(u, v) {
			continue
		}
		st.push(u, v, depth)
		if st.match(depth + 1) {
			return true
		}
		st.pop(u, v, depth)
	}
	return false
}

// nextPatternVertex picks the smallest terminal unmapped pattern vertex,
// falling back to the smallest unmapped vertex (first step of a component).
func (st *vf2State) nextPatternVertex() int32 {
	fallback := int32(-1)
	for u := int32(0); int(u) < st.p.NumVertices(); u++ {
		if st.core1[u] != -1 {
			continue
		}
		if st.tin1[u] > 0 {
			return u
		}
		if fallback == -1 {
			fallback = u
		}
	}
	return fallback
}

// feasible applies the non-induced VF2 feasibility rules to the candidate
// pair (u, v).
func (st *vf2State) feasible(u, v int32) bool {
	if st.p.Label(u) != st.t.Label(v) {
		return false
	}
	if st.p.Degree(u) > st.t.Degree(v) {
		return false
	}
	// Consistency: every mapped neighbour of u must map to a neighbour of v.
	// Look-ahead counters are gathered in the same pass.
	termP, freshP := 0, 0
	for _, w := range st.p.Neighbors(u) {
		if m := st.core1[w]; m != -1 {
			if !st.t.HasEdge(v, m) {
				return false
			}
		} else if st.tin1[w] > 0 {
			termP++
		} else {
			freshP++
		}
	}
	termT, freshT := 0, 0
	for _, w := range st.t.Neighbors(v) {
		if st.core2[w] != -1 {
			continue
		}
		if st.tin2[w] > 0 {
			termT++
		} else {
			freshT++
		}
	}
	// Non-induced cutting rules: unmapped terminal neighbours of u need
	// distinct terminal neighbours of v; all unmapped neighbours of u need
	// distinct unmapped neighbours of v.
	if termP > termT {
		return false
	}
	if termP+freshP > termT+freshT {
		return false
	}
	return true
}

func (st *vf2State) push(u, v, depth int32) {
	st.core1[u] = v
	st.core2[v] = u
	for _, w := range st.p.Neighbors(u) {
		if st.tin1[w] == 0 {
			st.tin1[w] = depth
		}
	}
	for _, w := range st.t.Neighbors(v) {
		if st.tin2[w] == 0 {
			st.tin2[w] = depth
		}
	}
}

func (st *vf2State) pop(u, v, depth int32) {
	for _, w := range st.p.Neighbors(u) {
		if st.tin1[w] == depth {
			st.tin1[w] = 0
		}
	}
	for _, w := range st.t.Neighbors(v) {
		if st.tin2[w] == depth {
			st.tin2[w] = 0
		}
	}
	st.core1[u] = -1
	st.core2[v] = -1
}
