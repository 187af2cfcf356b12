package iso

import (
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// fullScanVF2 is VF2 as it was before candidates were drawn from a mapped
// neighbour's image: every depth scans all target vertices and keeps the
// terminal ones for a terminal pattern vertex. It is the reference that
// pins VF2's search order.
func fullScanVF2(pattern, target *graph.Graph) ([]int32, bool) {
	n := pattern.NumVertices()
	if n == 0 {
		return []int32{}, true
	}
	if quickReject(pattern, target) {
		return nil, false
	}
	nt := target.NumVertices()
	st := refVF2{
		p: pattern, t: target,
		core1: fill(make([]int32, n), -1), core2: fill(make([]int32, nt), -1),
		tin1: make([]int32, n), tin2: make([]int32, nt),
	}
	if st.match(1) {
		return st.core1, true
	}
	return nil, false
}

type refVF2 struct {
	p, t         *graph.Graph
	core1, core2 []int32
	tin1, tin2   []int32
}

func (st *refVF2) match(depth int32) bool {
	if int(depth) > st.p.NumVertices() {
		return true
	}
	u := int32(-1)
	for w := int32(0); int(w) < st.p.NumVertices(); w++ {
		if st.core1[w] != -1 {
			continue
		}
		if st.tin1[w] > 0 {
			u = w
			break
		}
		if u == -1 {
			u = w
		}
	}
	fromTerminal := st.tin1[u] > 0
	for v := int32(0); int(v) < st.t.NumVertices(); v++ {
		if st.core2[v] != -1 || (fromTerminal && st.tin2[v] == 0) || !st.feasible(u, v) {
			continue
		}
		st.mark(u, v, depth, 0)
		st.core1[u], st.core2[v] = v, u
		if st.match(depth + 1) {
			return true
		}
		st.core1[u], st.core2[v] = -1, -1
		st.mark(u, v, 0, depth)
	}
	return false
}

// mark sets tin[w] = to for the neighbours of u and v whose tin is from.
func (st *refVF2) mark(u, v, to, from int32) {
	for _, w := range st.p.Neighbors(u) {
		if st.tin1[w] == from {
			st.tin1[w] = to
		}
	}
	for _, w := range st.t.Neighbors(v) {
		if st.tin2[w] == from {
			st.tin2[w] = to
		}
	}
}

func (st *refVF2) feasible(u, v int32) bool {
	if st.p.Label(u) != st.t.Label(v) || st.p.Degree(u) > st.t.Degree(v) {
		return false
	}
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
	return termP <= termT && termP+freshP <= termT+freshT
}

// TestVF2EmbeddingsUnchanged pins VF2's search order: on every pair it
// returns the very embedding the full-scan reference returns, over random
// pairs (disconnected ones included, where a component's first vertex
// scans the whole target) and over query/graph pairs of an AIDS-like
// dataset, with queries extracted from one graph and tested against
// every graph.
func TestVF2EmbeddingsUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	check := func(what string, pattern, target *graph.Graph) bool {
		want, wok := fullScanVF2(pattern, target)
		got, ok := VF2{}.FindEmbedding(pattern, target)
		if ok != wok || !slices.Equal(got, want) {
			t.Fatalf("%s: VF2 returns %v %v, the full scan %v %v\npattern %v %v\ntarget %v %v",
				what, got, ok, want, wok, pattern, pattern.Labels(), target, target.Labels())
		}
		return ok
	}
	var random, randomHits int
	for i := 0; i < 3000; i++ {
		target := randomGraph(r, 3+r.Intn(12), 1+r.Intn(3), 0.3)
		var pattern *graph.Graph
		switch i % 3 {
		case 0:
			pattern = randomGraph(r, 1+r.Intn(5), 1+r.Intn(3), 0.5)
		case 1:
			pattern = randomConnectedSubgraph(r, target, 2+r.Intn(6))
		default:
			pattern = union(randomConnectedSubgraph(r, target, 3), randomConnectedSubgraph(r, target, 3))
		}
		random++
		if check("random", pattern, target) {
			randomHits++
		}
	}
	ds := gen.DefaultAIDS().Scaled(0.005, 1).Generate(20170321)
	var pairs, searched, hits int
	for qi := 0; qi < 40; qi++ {
		src := ds.Graph(int32(r.Intn(ds.Len())))
		q := randomConnectedSubgraph(r, src, 3+r.Intn(10))
		for id := int32(0); int(id) < ds.Len(); id++ {
			g := ds.Graph(id)
			pairs++
			if !quickReject(q, g) {
				searched++
			}
			if check("aids", q, g) {
				hits++
			}
		}
	}
	t.Logf("random: %d pairs, %d embed; aids-like: %d pairs, %d searched, %d embed", random, randomHits, pairs, searched, hits)
	if randomHits == 0 || hits == 0 || searched == hits {
		t.Fatal("the pairs must exercise embeddings and failed searches")
	}
}

// greedyOrder is vf2plusOrder as first written: per step, a scan for the
// best unchosen vertex next to the order, then a scan of all unchosen
// vertices when none is.
func greedyOrder(p, t *graph.Graph) []int32 {
	n := p.NumVertices()
	better := func(a, b int32) bool {
		fa, fb := t.LabelCount(p.Label(a)), t.LabelCount(p.Label(b))
		if fa != fb {
			return fa < fb
		}
		if p.Degree(a) != p.Degree(b) {
			return p.Degree(a) > p.Degree(b)
		}
		return a < b
	}
	chosen, adjacent := make([]bool, n), make([]bool, n)
	order := make([]int32, 0, n)
	for range n {
		best := int32(-1)
		for _, nextTo := range []bool{true, false} {
			for u := int32(0); int(u) < n; u++ {
				if !chosen[u] && (adjacent[u] || !nextTo) && (best == -1 || better(u, best)) {
					best = u
				}
			}
			if best != -1 {
				break
			}
		}
		chosen[best] = true
		order = append(order, best)
		for _, w := range p.Neighbors(best) {
			adjacent[w] = true
		}
	}
	return order
}

// TestVF2PlusOrderUnchanged pins VF2+'s matching order to the greedy
// scan's, over connected and disconnected patterns.
func TestVF2PlusOrderUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		target := randomGraph(r, 5+r.Intn(12), 1+r.Intn(4), 0.3)
		pattern := randomGraph(r, 1+r.Intn(12), 1+r.Intn(4), 0.1+0.4*r.Float64())
		if i%2 == 1 {
			pattern = union(randomConnectedSubgraph(r, target, 6), pattern)
		}
		got := make([]int32, pattern.NumVertices())
		vf2plusOrder(pattern, target, got)
		if want := greedyOrder(pattern, target); !slices.Equal(got, want) {
			t.Fatalf("pair %d: order %v, the greedy scan gives %v\npattern %v %v", i, got, want, pattern, pattern.Labels())
		}
	}
}
