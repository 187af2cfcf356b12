// Package iso implements non-induced subgraph-isomorphism decision
// algorithms for undirected vertex-labelled graphs: VF2 [Cordella et al.,
// TPAMI 2004], VF2+ (VF2 with rarity/degree-driven ordering, the variant
// bundled with CT-Index) and GraphQL [He & Singh, SIGMOD 2008].
//
// All matchers answer the decision problem — does an injective,
// label-preserving mapping φ from pattern to target exist such that every
// pattern edge maps to a target edge — and stop at the first embedding, as
// GraphCache and all bundled query-processing methods require.
//
// Every matcher starts from one shared screen, quickReject: the graphs'
// 32-byte summaries, compared a word at a time, then their two shape
// words (hashed sets of labelled two-edge paths and three-leaf stars),
// then the label signature, then the edge-label signature. Most pairs a
// query meets end there, most of them at the summaries, so dataset
// verification, the subgraph and supergraph methods, the cache's
// confirmations and its exact lookup all reject them without a search.
// VF2 and VF2+ keep their per-test state in fixed arrays on the stack, so
// Contains and Isomorphic allocate nothing, whatever the verdict, and
// FindEmbedding allocates only the embedding it returns.
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
	// contains is FindEmbedding's verdict without the embedding, so a
	// caller that only asks for the verdict pays for no copy of it.
	contains(pattern, target *graph.Graph) bool
}

// Contains reports whether pattern ⊆ target under algorithm a.
func Contains(a Algorithm, pattern, target *graph.Graph) bool {
	return a.contains(pattern, target)
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

// quickReject performs the feasibility screens shared by all matchers, in
// order of cost. Each is a necessary condition for a non-induced
// embedding φ, so a rejected pair is one no matcher could embed:
//   - summaries (Graph.SummaryDominates): sizes, label bits, lane counts
//     and edge-pair bits, four word compares on one cache line per graph.
//     They fold the two merges below, so they catch most of what the
//     merges would, and nothing the merges would pass;
//   - shapes (Graph.ShapesDominate): φ maps each labelled two-edge path
//     and three-leaf star of the pattern onto distinct target vertices
//     forming the same shape with the same labels, so each of the
//     pattern's hashed shape bits is set in the target's words — two
//     word compares next to the summary. They see the labels around each
//     vertex, which neither the summary nor the merges do;
//   - labels: φ keeps labels, so each label occurs in the target at least
//     as often as in the pattern (Graph.LabelsDominate);
//   - edges: φ maps each pattern edge to a distinct target edge whose
//     endpoints carry the same unordered label pair, so each pair occurs
//     in the target at least as often (Graph.EdgesDominate).
//
// The last two are merges over signatures Build recorded, so a screened
// pair costs no allocation and no search.
func quickReject(pattern, target *graph.Graph) bool {
	return !target.SummaryDominates(pattern) || !target.ShapesDominate(pattern) ||
		!target.LabelsDominate(pattern) || !target.EdgesDominate(pattern)
}

// Bounds of the per-test state kept in fixed arrays on the matchers' stack
// frames. Query patterns are far below stackPattern vertices and the
// generators' largest dataset graph has 245 vertices; a larger graph gets
// its state from make instead.
const (
	stackPattern = 32
	stackTarget  = 256
)

// scratch returns the first n elements of buf, which is zero (a fresh
// array), or a new zeroed slice when buf is too short.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
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

// neighborLabelMask returns the labels of v's neighbours as a mask with
// bit label%64: the neighbour-label rule of VF2 and VF2+ compares these,
// a set inclusion that labels sharing a bit can only loosen.
func neighborLabelMask(g *graph.Graph, v int32) uint64 {
	var m uint64
	for _, w := range g.Neighbors(v) {
		m |= 1 << (g.Label(w) % 64)
	}
	return m
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
