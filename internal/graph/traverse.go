package graph

// BFSOrder returns the vertices reachable from start in breadth-first
// order (including start itself).
func (g *Graph) BFSOrder(start int32) []int32 {
	seen := make([]bool, g.NumVertices())
	order := make([]int32, 0, g.NumVertices())
	queue := []int32{start}
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// ConnectedComponents returns the vertex sets of the connected components
// of g, each sorted ascending, ordered by their smallest vertex.
func (g *Graph) ConnectedComponents() [][]int32 {
	n := g.NumVertices()
	seen := make([]bool, n)
	var comps [][]int32
	for s := int32(0); int(s) < n; s++ {
		if seen[s] {
			continue
		}
		comp := []int32{}
		stack := []int32{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		// DFS emits out of order; components are reported sorted so that
		// callers get deterministic output.
		sortInt32s(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected. The empty graph counts as
// connected.
func (g *Graph) IsConnected() bool {
	n := g.NumVertices()
	if n == 0 {
		return true
	}
	return len(g.BFSOrder(0)) == n
}

func sortInt32s(s []int32) {
	// Insertion sort: component slices here are typically small, and this
	// avoids pulling in sort for a hot path. Falls back to shell gaps for
	// larger inputs.
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			for j := i; j >= gap && s[j-gap] > s[j]; j -= gap {
				s[j-gap], s[j] = s[j], s[j-gap]
			}
		}
	}
}
