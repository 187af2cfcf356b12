package iso

import (
	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// GraphQL implements the matcher of He & Singh [SIGMOD 2008]: per-vertex
// candidate sets pruned by neighbourhood label profiles, a bounded
// pseudo-arc-consistency refinement pass, a greedy least-candidates search
// order, and backtracking with forward candidate intersection.
type GraphQL struct {
	// RefineIterations bounds the arc-consistency sweeps (the paper's
	// "pseudo subgraph isomorphism" level). Zero means the default of 2.
	RefineIterations int
}

// Name implements Algorithm.
func (GraphQL) Name() string { return "graphql" }

func (a GraphQL) contains(pattern, target *graph.Graph) bool {
	_, ok := a.FindEmbedding(pattern, target)
	return ok
}

// FindEmbedding implements Algorithm.
func (a GraphQL) FindEmbedding(pattern, target *graph.Graph) ([]int32, bool) {
	n := pattern.NumVertices()
	if n == 0 {
		return []int32{}, true
	}
	if quickReject(pattern, target) {
		return nil, false
	}
	cand := buildCandidates(pattern, target)
	if cand == nil {
		return nil, false
	}
	iters := a.RefineIterations
	if iters <= 0 {
		iters = 2
	}
	if !refineCandidates(pattern, target, cand, iters) {
		return nil, false
	}
	st := &gqlState{
		p:     pattern,
		t:     target,
		cand:  cand,
		order: gqlOrder(pattern, cand),
		core1: fill(make([]int32, n), -1),
		used:  make([]bool, target.NumVertices()),
	}
	if st.match(0) {
		return st.core1, true
	}
	return nil, false
}

// buildCandidates computes C(u) = {v : label match, deg(v) ≥ deg(u),
// profile(u) ⊆ profile(v)}. Returns nil if any C(u) is empty. Target
// profiles are computed lazily, once per call.
func buildCandidates(p, t *graph.Graph) []*bitset.Set {
	nT := t.NumVertices()
	tProfiles := make([][]graph.Label, nT)
	profile := func(v int32) []graph.Label {
		if tProfiles[v] == nil {
			pr := neighborLabelProfile(t, v)
			if pr == nil {
				pr = []graph.Label{} // mark computed
			}
			tProfiles[v] = pr
		}
		return tProfiles[v]
	}
	cand := make([]*bitset.Set, p.NumVertices())
	for u := int32(0); int(u) < p.NumVertices(); u++ {
		c := bitset.New(nT)
		up := neighborLabelProfile(p, u)
		for v := int32(0); int(v) < nT; v++ {
			if p.Label(u) != t.Label(v) || p.Degree(u) > t.Degree(v) {
				continue
			}
			if !profileContains(profile(v), up) {
				continue
			}
			c.Set(int(v))
		}
		if !c.Any() {
			return nil
		}
		cand[u] = c
	}
	return cand
}

// refineCandidates runs up to iters sweeps of arc consistency: v stays in
// C(u) only if every pattern neighbour u' of u has a candidate among v's
// neighbours. Returns false if some candidate set empties.
func refineCandidates(p, t *graph.Graph, cand []*bitset.Set, iters int) bool {
	for it := 0; it < iters; it++ {
		changed := false
		for u := int32(0); int(u) < p.NumVertices(); u++ {
			var dead []int
			cand[u].ForEach(func(vi int) bool {
				v := int32(vi)
				for _, w := range p.Neighbors(u) {
					ok := false
					for _, x := range t.Neighbors(v) {
						if cand[w].Get(int(x)) {
							ok = true
							break
						}
					}
					if !ok {
						dead = append(dead, vi)
						return true
					}
				}
				return true
			})
			for _, vi := range dead {
				cand[u].Clear(vi)
				changed = true
			}
			if !cand[u].Any() {
				return false
			}
		}
		if !changed {
			break
		}
	}
	return true
}

// gqlOrder orders pattern vertices greedily by smallest candidate set,
// preferring vertices connected to the already-ordered prefix.
func gqlOrder(p *graph.Graph, cand []*bitset.Set) []int32 {
	n := p.NumVertices()
	chosen := make([]bool, n)
	adjacent := make([]bool, n)
	order := make([]int32, 0, n)
	for len(order) < n {
		best := int32(-1)
		pick := func(connectedOnly bool) {
			for u := int32(0); int(u) < n; u++ {
				if chosen[u] || (connectedOnly && !adjacent[u]) {
					continue
				}
				if best == -1 || cand[u].Count() < cand[best].Count() {
					best = u
				}
			}
		}
		pick(true)
		if best == -1 {
			pick(false)
		}
		chosen[best] = true
		order = append(order, best)
		for _, w := range p.Neighbors(best) {
			adjacent[w] = true
		}
	}
	return order
}

type gqlState struct {
	p, t  *graph.Graph
	cand  []*bitset.Set
	order []int32
	core1 []int32
	used  []bool
}

func (st *gqlState) match(depth int) bool {
	if depth == len(st.order) {
		return true
	}
	u := st.order[depth]
	anchor := int32(-1)
	for _, w := range st.p.Neighbors(u) {
		if m := st.core1[w]; m != -1 {
			if anchor == -1 || st.t.Degree(m) < st.t.Degree(anchor) {
				anchor = m
			}
		}
	}
	try := func(v int32) bool {
		if st.used[v] || !st.cand[u].Get(int(v)) {
			return false
		}
		for _, w := range st.p.Neighbors(u) {
			if m := st.core1[w]; m != -1 && !st.t.HasEdge(v, m) {
				return false
			}
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
	if anchor != -1 {
		for _, v := range st.t.Neighbors(anchor) {
			if try(v) {
				return true
			}
		}
		return false
	}
	found := false
	st.cand[u].ForEach(func(vi int) bool {
		if try(int32(vi)) {
			found = true
			return false
		}
		return true
	})
	return found
}
