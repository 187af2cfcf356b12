// Package iso implements non-induced subgraph-isomorphism decision
// algorithms for undirected vertex-labelled graphs: VF2 [Cordella et al.,
// TPAMI 2004], VF2+ (VF2 with rarity/degree-driven ordering, the variant
// bundled with CT-Index) and GraphQL [He & Singh, SIGMOD 2008].
//
// All matchers answer the decision problem — does an injective,
// label-preserving mapping φ from pattern to target exist such that every
// pattern edge maps to a target edge — and stop at the first embedding, as
// GraphCache and all bundled query-processing methods require.
package iso

import "graphcache/internal/graph"

// Algorithm is a subgraph-isomorphism matcher. Implementations are
// stateless and safe for concurrent use; all per-search state lives on the
// call stack.
type Algorithm interface {
	// Name identifies the algorithm ("vf2", "graphql", ...).
	Name() string
	// FindEmbedding returns an embedding of pattern into target — a slice
	// m with m[u] = image of pattern vertex u — and true, or nil and false
	// when pattern ⊄ target. The empty pattern embeds trivially.
	FindEmbedding(pattern, target *graph.Graph) ([]int32, bool)
}

// Contains reports whether pattern ⊆ target under algorithm a.
func Contains(a Algorithm, pattern, target *graph.Graph) bool {
	_, ok := a.FindEmbedding(pattern, target)
	return ok
}

// Isomorphic reports whether two graphs are isomorphic, using the
// observation from the paper (§5.1): for graphs with equal vertex and edge
// counts, g ⊆ h implies isomorphism (any injection is then a bijection and
// edge counts force edge surjectivity).
func Isomorphic(a Algorithm, g, h *graph.Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	return Contains(a, g, h)
}

// quickReject performs the O(n) feasibility screens shared by all
// matchers: size and label-multiset domination.
func quickReject(pattern, target *graph.Graph) bool {
	if pattern.NumVertices() > target.NumVertices() || pattern.NumEdges() > target.NumEdges() {
		return true
	}
	return !target.LabelsDominate(pattern)
}

// ValidEmbedding checks that m is a correct non-induced embedding of
// pattern into target: injective, label preserving and edge preserving.
// It is exported for use by tests of all matchers and by the cache's
// self-check mode.
func ValidEmbedding(pattern, target *graph.Graph, m []int32) bool {
	if len(m) != pattern.NumVertices() {
		return false
	}
	used := make(map[int32]bool, len(m))
	for u, v := range m {
		if v < 0 || int(v) >= target.NumVertices() {
			return false
		}
		if used[v] {
			return false
		}
		used[v] = true
		if pattern.Label(int32(u)) != target.Label(v) {
			return false
		}
	}
	ok := true
	pattern.Edges(func(u, v int32) {
		if !target.HasEdge(m[u], m[v]) {
			ok = false
		}
	})
	return ok
}

// neighborLabelProfile returns the sorted multiset of labels of v's
// neighbours — the "profile" used by GraphQL's candidate pruning.
func neighborLabelProfile(g *graph.Graph, v int32) []graph.Label {
	nb := g.Neighbors(v)
	p := make([]graph.Label, len(nb))
	for i, w := range nb {
		p[i] = g.Label(w)
	}
	sortLabels(p)
	return p
}

// profileContains reports whether sorted multiset sub is contained in
// sorted multiset super.
func profileContains(super, sub []graph.Label) bool {
	if len(sub) > len(super) {
		return false
	}
	i := 0
	for _, l := range sub {
		for i < len(super) && super[i] < l {
			i++
		}
		if i >= len(super) || super[i] != l {
			return false
		}
		i++
	}
	return true
}

func sortLabels(p []graph.Label) {
	// Labels per vertex are few; insertion sort keeps this allocation free.
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j-1] > p[j]; j-- {
			p[j-1], p[j] = p[j], p[j-1]
		}
	}
}
