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
//
// A pattern vertex with a mapped neighbour draws its candidates from the
// ascending neighbour list of that neighbour's image — of the mapped
// neighbours, the one whose image has the fewest neighbours — as VF2+
// does. Every feasible candidate neighbours that image, and every
// neighbour of a mapped vertex is in the target's terminal set, so the
// list yields exactly the candidates a scan of all target vertices would
// accept, in the same order: the search, and the embedding it returns,
// are those of the full scan. Only a vertex that starts a component scans
// the whole target, and it tries only the target vertices with its label,
// the only ones feasible.
//
// One more cutting rule rides on the look-ahead's pass over the
// candidate's neighbours: it must have a neighbour of every label the
// pattern vertex has a neighbour of, compared as 64-bit masks with bit
// label%64 (labels sharing a bit can pass a pair, never reject one that
// embeds). A pruned pair has no embedding below it, so the search still
// returns the full scan's embedding.
type VF2 struct{}

// Name implements Algorithm.
func (VF2) Name() string { return "vf2" }

// FindEmbedding implements Algorithm.
func (VF2) FindEmbedding(pattern, target *graph.Graph) ([]int32, bool) {
	var m []int32
	ok := vf2Search(pattern, target, &m)
	return m, ok
}

func (VF2) contains(pattern, target *graph.Graph) bool {
	return vf2Search(pattern, target, nil)
}

// vf2Search runs VF2 on pattern and target and reports whether an
// embedding exists; when embedding is not nil, it also stores a copy of
// the embedding there.
func vf2Search(pattern, target *graph.Graph, embedding *[]int32) bool {
	n := pattern.NumVertices()
	if n == 0 {
		if embedding != nil {
			*embedding = []int32{}
		}
		return true
	}
	if quickReject(pattern, target) {
		return false
	}
	nt := target.NumVertices()
	var (
		core1, tin1 [stackPattern]int32
		nlabels     [stackPattern]uint64
		core2, tin2 [stackTarget]int32
	)
	st := vf2State{
		p:       pattern,
		t:       target,
		core1:   fill(scratch(core1[:], n), -1),
		core2:   fill(scratch(core2[:], nt), -1),
		tin1:    scratch(tin1[:], n),
		tin2:    scratch(tin2[:], nt),
		nlabels: scratch(nlabels[:], n),
	}
	for u := range st.nlabels {
		st.nlabels[u] = neighborLabelMask(pattern, int32(u))
	}
	if !st.match(1) {
		return false
	}
	if embedding != nil {
		*embedding = slices.Clone(st.core1)
	}
	return true
}

type vf2State struct {
	p, t         *graph.Graph
	core1, core2 []int32  // partial mapping, -1 = unmapped
	tin1, tin2   []int32  // depth at which vertex entered the terminal set (0 = never)
	nlabels      []uint64 // nlabels[u] = neighborLabelMask(p, u)
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
	anchor := int32(-1)
	for _, w := range st.p.Neighbors(u) {
		if m := st.core1[w]; m != -1 && (anchor == -1 || st.t.Degree(m) < st.t.Degree(anchor)) {
			anchor = m
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
	lu := st.p.Label(u)
	for v, l := range st.t.Labels() {
		if l == lu && st.try(depth, u, int32(v)) {
			return true
		}
	}
	return false
}

// try maps u to v if v is free and the pair is feasible, and extends the
// mapping from there, undoing it if no embedding follows.
func (st *vf2State) try(depth, u, v int32) bool {
	if st.core2[v] != -1 || !st.feasible(u, v) {
		return false
	}
	st.push(u, v, depth)
	if st.match(depth + 1) {
		return true
	}
	st.pop(u, v, depth)
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
	var vlabels uint64
	for _, w := range st.t.Neighbors(v) {
		vlabels |= 1 << (st.t.Label(w) % 64)
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
	// distinct unmapped neighbours of v; and each label among u's
	// neighbours needs a neighbour of v with it.
	return termP <= termT && termP+freshP <= termT+freshT && st.nlabels[u]&^vlabels == 0
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
