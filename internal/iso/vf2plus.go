package iso

import (
	"math"
	"slices"

	"graphcache/internal/graph"
)

// VF2Plus is the tuned VF2 variant shipped with CT-Index [Klein et al.,
// ICDE 2011]: it precomputes a static pattern-vertex order (rarest target
// label first, then highest degree, kept connected) and draws candidates
// from the neighbourhood of an already-mapped neighbour's image instead of
// scanning the whole target. A candidate must carry the pattern vertex's
// label, have at least its degree, neighbour the images of its mapped
// neighbours, and have a neighbour of every label the pattern vertex has
// a neighbour of — compared as 64-bit masks with bit label%64, so labels
// sharing a bit can pass a pair, never reject one that embeds.
type VF2Plus struct{}

// Name implements Algorithm.
func (VF2Plus) Name() string { return "vf2plus" }

// FindEmbedding implements Algorithm.
func (VF2Plus) FindEmbedding(pattern, target *graph.Graph) ([]int32, bool) {
	var m []int32
	ok := vf2plusSearch(pattern, target, &m)
	return m, ok
}

func (VF2Plus) contains(pattern, target *graph.Graph) bool {
	return vf2plusSearch(pattern, target, nil)
}

// vf2plusSearch runs VF2+ on pattern and target and reports whether an
// embedding exists; when embedding is not nil, it also stores a copy of
// the embedding there.
func vf2plusSearch(pattern, target *graph.Graph, embedding *[]int32) bool {
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
	var (
		core1, order [stackPattern]int32
		nlabels      [stackPattern]uint64
		used         [stackTarget]bool
	)
	st := vf2pState{
		p:       pattern,
		t:       target,
		order:   scratch(order[:], n),
		core1:   fill(scratch(core1[:], n), -1),
		nlabels: scratch(nlabels[:], n),
		used:    scratch(used[:], target.NumVertices()),
	}
	for u := range st.nlabels {
		st.nlabels[u] = neighborLabelMask(pattern, int32(u))
	}
	vf2plusOrder(pattern, target, st.order)
	if !st.match(0) {
		return false
	}
	if embedding != nil {
		*embedding = slices.Clone(st.core1)
	}
	return true
}

type vf2pState struct {
	p, t    *graph.Graph
	order   []int32
	core1   []int32
	nlabels []uint64 // nlabels[u] = neighborLabelMask(p, u)
	used    []bool
}

// vf2plusOrder fills order (one slot per pattern vertex) with the static
// matching order: score vertices by (target frequency of their label
// ascending, degree descending, ID ascending), then greedily build a
// connected order starting from the best-scored vertex.
//
// Each vertex's score is one word, with a top bit that is set until the
// vertex neighbours a chosen one, so a step is one scan for the least
// word: a vertex adjacent to the order beats every other, and a chosen
// vertex, set to all ones, loses to all.
func vf2plusOrder(p, t *graph.Graph, order []int32) {
	const (
		apart = 1 << 63
		done  = math.MaxUint64
	)
	var keyBuf [stackPattern]uint64
	key := scratch(keyBuf[:], p.NumVertices())
	for u := range key {
		freq, deg := t.LabelCount(p.Label(int32(u))), p.Degree(int32(u)) // freq < 1<<16
		key[u] = apart | uint64(freq)<<32 | uint64(math.MaxUint32-uint32(deg))
	}
	for k := range order {
		best := 0
		for u := 1; u < len(key); u++ {
			if key[u] < key[best] {
				best = u
			}
		}
		order[k] = int32(best)
		key[best] = done
		for _, w := range p.Neighbors(int32(best)) {
			if key[w] != done {
				key[w] &^= apart
			}
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
	// A candidate must carry u's label and have at least its degree;
	// the candidate loops check both before they try the pair.
	lu, du := st.p.Label(u), st.p.Degree(u)
	if anchor != -1 {
		for _, v := range st.t.Neighbors(anchor) {
			if st.t.Label(v) == lu && st.t.Degree(v) >= du && st.try(depth, u, v) {
				return true
			}
		}
		return false
	}
	// u starts a component: only target vertices with its label can
	// take it.
	for v, l := range st.t.Labels() {
		if l == lu && st.t.Degree(int32(v)) >= du && st.try(depth, u, int32(v)) {
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

// feasible checks the rules match leaves to it for the candidate pair
// (u, v), whose labels and degrees match has checked.
func (st *vf2pState) feasible(u, v int32) bool {
	// Each neighbour of u maps to a neighbour of v with its label.
	if st.nlabels[u]&^neighborLabelMask(st.t, v) != 0 {
		return false
	}
	for _, w := range st.p.Neighbors(u) {
		if m := st.core1[w]; m != -1 && !st.t.HasEdge(v, m) {
			return false
		}
	}
	return true
}
