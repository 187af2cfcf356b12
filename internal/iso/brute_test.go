package iso

import "graphcache/internal/graph"

// Brute is an exhaustive backtracking matcher with no ordering heuristics
// or look-ahead — only label and mapped-edge consistency. It exists as the
// correctness oracle for property tests of the real matchers; do not use
// it on patterns beyond a handful of vertices.
type Brute struct{}

// Name implements Algorithm.
func (Brute) Name() string { return "brute" }

func (b Brute) contains(pattern, target *graph.Graph) bool {
	_, ok := b.FindEmbedding(pattern, target)
	return ok
}

// FindEmbedding implements Algorithm.
func (Brute) FindEmbedding(pattern, target *graph.Graph) ([]int32, bool) {
	n := pattern.NumVertices()
	if n == 0 {
		return []int32{}, true
	}
	if pattern.NumVertices() > target.NumVertices() {
		return nil, false
	}
	core := fill(make([]int32, n), -1)
	used := make([]bool, target.NumVertices())
	var rec func(u int32) bool
	rec = func(u int32) bool {
		if int(u) == n {
			return true
		}
		for v := int32(0); int(v) < target.NumVertices(); v++ {
			if used[v] || pattern.Label(u) != target.Label(v) {
				continue
			}
			ok := true
			for _, w := range pattern.Neighbors(u) {
				if m := core[w]; m != -1 && !target.HasEdge(v, m) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			core[u] = v
			used[v] = true
			if rec(u + 1) {
				return true
			}
			core[u] = -1
			used[v] = false
		}
		return false
	}
	if rec(0) {
		return core, true
	}
	return nil, false
}
