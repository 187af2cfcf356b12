// Package workload synthesises query workloads from dataset graphs,
// reproducing the paper's two generators (§7.2):
//
//   - Type A: pick a source graph (Uniform or Zipf), a start node (Uniform
//     or Zipf), a size uniformly from a fixed list, then extract a query by
//     BFS. The category names "UU", "ZU" and "ZZ" give the two
//     distributions (graph, node).
//   - Type B: per query size, build a pool of answerable queries (random
//     walks over dataset graphs) and a pool of no-answer queries (random
//     walks relabelled until they keep a non-empty candidate set but have
//     an empty answer set); workloads then mix the pools with a configured
//     no-answer probability and Zipf-select queries within pools, so
//     queries repeat — the premise of any cache.
//
// All generation is deterministic given the seed.
package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// Query is one workload entry.
type Query struct {
	Graph *graph.Graph
	// NoAnswer marks queries drawn from the Type B no-answer pool.
	NoAnswer bool
}

// Dist selects a sampling distribution.
type Dist int

const (
	// Uniform sampling.
	Uniform Dist = iota
	// Zipfian sampling with the workload's alpha.
	Zipfian
)

// TypeAConfig parameterises the Type A generator.
type TypeAConfig struct {
	GraphDist  Dist
	NodeDist   Dist
	Alpha      float64 // used by any Zipfian component (default 1.4)
	Sizes      []int   // query sizes in edges
	NumQueries int
}

// TypeACategory builds the config for a paper category name: "UU", "ZU" or
// "ZZ" (first letter = graph distribution, second = node distribution).
func TypeACategory(cat string, alpha float64, sizes []int, numQueries int) (TypeAConfig, error) {
	cfg := TypeAConfig{Alpha: alpha, Sizes: sizes, NumQueries: numQueries}
	switch cat {
	case "UU":
		cfg.GraphDist, cfg.NodeDist = Uniform, Uniform
	case "ZU":
		cfg.GraphDist, cfg.NodeDist = Zipfian, Uniform
	case "ZZ":
		cfg.GraphDist, cfg.NodeDist = Zipfian, Zipfian
	default:
		return cfg, fmt.Errorf("workload: unknown Type A category %q", cat)
	}
	return cfg, nil
}

// TypeA generates a Type A workload over ds.
func TypeA(ds *dataset.Dataset, cfg TypeAConfig, seed int64) []Query {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.4
	}
	r := rand.New(rand.NewSource(seed))
	graphZipf := NewZipf(cfg.Alpha, ds.Len())
	nodeZipf := zipfMemo(cfg.Alpha)
	queries := make([]Query, 0, cfg.NumQueries)
	for len(queries) < cfg.NumQueries {
		size := cfg.Sizes[r.Intn(len(cfg.Sizes))]
		var g *graph.Graph
		if cfg.GraphDist == Zipfian {
			g = ds.Graph(int32(graphZipf.Sample(r)))
		} else {
			g = ds.Graph(int32(r.Intn(ds.Len())))
		}
		if g.NumVertices() == 0 {
			continue
		}
		var node int32
		if cfg.NodeDist == Zipfian {
			node = int32(nodeZipf(g.NumVertices()).Sample(r))
		} else {
			node = int32(r.Intn(g.NumVertices()))
		}
		q := bfsExtract(g, node, size)
		if q.NumEdges() == 0 {
			continue // isolated start node; redraw
		}
		queries = append(queries, Query{Graph: q})
	}
	return queries
}

// bfsExtract grows a query from start by BFS, adding for each new node all
// its edges to already-visited nodes, until the edge budget is reached
// (§7.2). The extraction is deterministic, so repeated (graph, node, size)
// draws yield identical queries — the source of exact-match cache hits.
func bfsExtract(g *graph.Graph, start int32, sizeEdges int) *graph.Graph {
	b := graph.NewBuilder()
	idx := map[int32]int32{start: b.AddVertex(g.Label(start))}
	queue := []int32{start}
	edges := 0
	for len(queue) > 0 && edges < sizeEdges {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if edges >= sizeEdges {
				break
			}
			if _, seen := idx[w]; seen {
				continue
			}
			nw := b.AddVertex(g.Label(w))
			idx[w] = nw
			// All edges from the new node to already-visited nodes.
			for _, x := range g.Neighbors(w) {
				if nx, ok := idx[x]; ok {
					b.AddEdge(nw, nx)
					edges++
				}
			}
			queue = append(queue, w)
		}
	}
	return b.MustBuild()
}

// TypeBConfig parameterises Type B pools and workloads.
type TypeBConfig struct {
	// AnswerPoolPerSize and NoAnswerPoolPerSize are the per-size pool
	// sizes (the paper uses 10,000 and 3,000).
	AnswerPoolPerSize   int
	NoAnswerPoolPerSize int
	Sizes               []int
	// MaxRelabelAttempts bounds the relabelling loop per no-answer query.
	MaxRelabelAttempts int
}

func (c TypeBConfig) withDefaults() TypeBConfig {
	if c.AnswerPoolPerSize <= 0 {
		c.AnswerPoolPerSize = 10000
	}
	if c.NoAnswerPoolPerSize <= 0 {
		c.NoAnswerPoolPerSize = 3000
	}
	if c.MaxRelabelAttempts <= 0 {
		c.MaxRelabelAttempts = 200
	}
	return c
}

// TypeBPools holds the per-size answerable and no-answer query pools.
// Build once, derive many workloads.
type TypeBPools struct {
	Sizes    []int
	Answer   map[int][]*graph.Graph
	NoAnswer map[int][]*graph.Graph
}

// BuildTypeBPools constructs the pools over ds. No-answer queries are
// validated exactly: non-empty candidate set under label-multiset
// domination (the weakest filter any method applies) and an empty answer
// set under VF2+.
func BuildTypeBPools(ds *dataset.Dataset, cfg TypeBConfig, seed int64) *TypeBPools {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(seed))
	pools := &TypeBPools{
		Sizes:    cfg.Sizes,
		Answer:   make(map[int][]*graph.Graph),
		NoAnswer: make(map[int][]*graph.Graph),
	}
	labelAlphabet := datasetLabels(ds)
	algo := iso.VF2Plus{}
	for _, size := range cfg.Sizes {
		// Bound the attempts: on small or oddly shaped datasets a pool
		// may be impossible to fill (walks can't reach the size, or every
		// relabelling still has answers). A short pool degrades the
		// workload gracefully; an unbounded loop would hang forever.
		for tries := 0; len(pools.Answer[size]) < cfg.AnswerPoolPerSize &&
			tries < 50*cfg.AnswerPoolPerSize; tries++ {
			q := randomWalkQuery(r, ds, size)
			if q != nil {
				pools.Answer[size] = append(pools.Answer[size], q)
			}
		}
		// No-answer generation validates every relabelling against the
		// dataset — by far the most expensive step of workload synthesis
		// (the paper's authors note the extra relabelling step too). Pool
		// slots are independent, so they are built on a worker pool; each
		// slot derives its own RNG so the result stays deterministic
		// given (seed, size, slot).
		slots := make([]*graph.Graph, cfg.NoAnswerPoolPerSize)
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		if workers > cfg.NoAnswerPoolPerSize {
			workers = cfg.NoAnswerPoolPerSize
		}
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for slot := range next {
					wr := rand.New(rand.NewSource(seed*31 + int64(size)*1_000_003 + int64(slot)))
					for tries := 0; slots[slot] == nil && tries < 50; tries++ {
						base := randomWalkQuery(wr, ds, size)
						if base == nil {
							continue
						}
						slots[slot] = relabelToNoAnswer(wr, ds, base, labelAlphabet, algo, cfg.MaxRelabelAttempts)
					}
				}
			}()
		}
		for slot := range slots {
			next <- slot
		}
		close(next)
		wg.Wait()
		for _, q := range slots {
			if q != nil {
				pools.NoAnswer[size] = append(pools.NoAnswer[size], q)
			}
		}
	}
	return pools
}

// randomWalkQuery extracts a query of the given edge size by a random walk
// from a uniformly chosen node across all dataset nodes (§7.2). Returns
// nil when the walk cannot reach the requested size (tiny component).
func randomWalkQuery(r *rand.Rand, ds *dataset.Dataset, sizeEdges int) *graph.Graph {
	// Uniform over all nodes of all graphs ≈ graph weighted by size.
	g := ds.Graph(int32(r.Intn(ds.Len())))
	if g.NumVertices() == 0 {
		return nil
	}
	start := int32(r.Intn(g.NumVertices()))
	type edge struct{ u, v int32 }
	included := make(map[edge]struct{})
	idx := map[int32]int32{}
	b := graph.NewBuilder()
	addV := func(v int32) int32 {
		if nv, ok := idx[v]; ok {
			return nv
		}
		nv := b.AddVertex(g.Label(v))
		idx[v] = nv
		return nv
	}
	cur := start
	addV(cur)
	for steps := 0; len(included) < sizeEdges && steps < sizeEdges*30; steps++ {
		nb := g.Neighbors(cur)
		if len(nb) == 0 {
			break
		}
		next := nb[r.Intn(len(nb))]
		e := edge{cur, next}
		if next < cur {
			e = edge{next, cur}
		}
		if _, ok := included[e]; !ok {
			included[e] = struct{}{}
			b.AddEdge(addV(cur), addV(next))
		}
		cur = next
	}
	if len(included) < sizeEdges {
		return nil
	}
	return b.MustBuild()
}

// relabelToNoAnswer repeatedly relabels base's vertices with random
// dataset labels until the query has a non-empty candidate set but an
// empty answer set. Returns nil if attempts run out.
func relabelToNoAnswer(r *rand.Rand, ds *dataset.Dataset, base *graph.Graph, alphabet []graph.Label, algo iso.Algorithm, attempts int) *graph.Graph {
	for a := 0; a < attempts; a++ {
		b := graph.NewBuilder()
		for v := int32(0); int(v) < base.NumVertices(); v++ {
			b.AddVertex(alphabet[r.Intn(len(alphabet))])
		}
		base.Edges(func(u, v int32) { b.AddEdge(u, v) })
		q := b.MustBuild()
		candidates := 0
		answered := false
		for _, g := range ds.Graphs() {
			if !g.LabelsDominate(q) {
				continue
			}
			candidates++
			if iso.Contains(algo, q, g) {
				answered = true
				break
			}
		}
		if candidates > 0 && !answered {
			return q
		}
	}
	return nil
}

func datasetLabels(ds *dataset.Dataset) []graph.Label {
	seen := make(map[graph.Label]struct{})
	var out []graph.Label
	for _, g := range ds.Graphs() {
		for _, l := range g.Labels() {
			if _, ok := seen[l]; !ok {
				seen[l] = struct{}{}
				out = append(out, l)
			}
		}
	}
	return out
}

// TypeBWorkloadConfig parameterises workload drawing from built pools.
type TypeBWorkloadConfig struct {
	// NoAnswerProb is the biased-coin probability of drawing from the
	// no-answer pool (the paper's 0%, 20%, 50% categories).
	NoAnswerProb float64
	// Alpha is the Zipf skew for query selection within a pool
	// (default 1.4).
	Alpha      float64
	NumQueries int
}

// Workload draws a Type B workload from the pools.
func (p *TypeBPools) Workload(cfg TypeBWorkloadConfig, seed int64) []Query {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1.4
	}
	r := rand.New(rand.NewSource(seed))
	zipfFor := zipfMemo(cfg.Alpha)
	anyPool := false
	for _, size := range p.Sizes {
		if len(p.Answer[size]) > 0 {
			anyPool = true
			break
		}
	}
	if !anyPool {
		// BuildTypeBPools came up empty (degenerate dataset); an empty
		// workload is the graceful result.
		return nil
	}
	out := make([]Query, 0, cfg.NumQueries)
	for len(out) < cfg.NumQueries {
		size := p.Sizes[r.Intn(len(p.Sizes))]
		pool := p.Answer[size]
		noAns := false
		if r.Float64() < cfg.NoAnswerProb && len(p.NoAnswer[size]) > 0 {
			pool = p.NoAnswer[size]
			noAns = true
		}
		if len(pool) == 0 {
			continue
		}
		q := pool[zipfFor(len(pool)).Sample(r)]
		out = append(out, Query{Graph: q, NoAnswer: noAns})
	}
	return out
}
