// Package grapes implements Grapes [Giugno et al., PLoS One 2013]: a
// filter-then-verify subgraph-query method that, like GraphGrepSX, indexes
// label paths up to length 4, but additionally records the *locations*
// (vertex sets) of each path's occurrences. Verification is restricted to
// the connected components of the subgraph induced by the matched paths'
// locations, and runs on a configurable worker pool — the paper evaluates
// Grapes1 (1 thread) and Grapes6 (6 threads). As in the paper's modified
// build, query processing stops at the first match in each dataset graph.
package grapes

import (
	"sync"

	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// Options configures index construction and query execution.
type Options struct {
	// MaxPathLen is the maximum path length in edges (default 4).
	MaxPathLen int
	// Threads is the verification worker-pool size (default 1 = Grapes1).
	Threads int
}

func (o Options) withDefaults() Options {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 4
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	return o
}

type posting struct {
	count int32
	locs  []int32 // sorted vertex ids covered by occurrences
}

// Index is a built Grapes index. It implements method.Method and
// method.BatchVerifier for subgraph queries.
type Index struct {
	ds       *dataset.Dataset
	opts     Options
	features map[pathfeat.Key]map[int32]posting
	algo     iso.Algorithm
}

// New builds the Grapes index over ds.
func New(ds *dataset.Dataset, opts Options) *Index {
	opts = opts.withDefaults()
	idx := &Index{
		ds:       ds,
		opts:     opts,
		features: make(map[pathfeat.Key]map[int32]posting),
		algo:     iso.VF2{},
	}
	for _, g := range ds.Graphs() {
		if g == nil { // tombstone of a removed graph
			continue
		}
		idx.insertGraph(g)
	}
	return idx
}

// insertGraph writes g's feature counts and occurrence locations into
// the posting lists.
func (idx *Index) insertGraph(g *graph.Graph) {
	counts, locs := pathfeat.SimplePathsWithLocations(g, idx.opts.MaxPathLen)
	for k, c := range counts {
		m := idx.features[k]
		if m == nil {
			m = make(map[int32]posting)
			idx.features[k] = m
		}
		m[g.ID()] = posting{count: c, locs: locs[k]}
	}
}

// purge deletes every posting of id across all features.
func (idx *Index) purge(id int32) {
	for k, m := range idx.features {
		if _, ok := m[id]; ok {
			delete(m, id)
			if len(m) == 0 {
				delete(idx.features, k)
			}
		}
	}
}

// ApplyDatasetMutation implements method.DynamicMethod. Grapes cannot
// tolerate stale postings on edited graphs: occurrence locations bound
// the region Verify searches (matchRegion), so a stale location set
// could shrink the search below the true occurrences — a false
// negative. Edited graphs are therefore purged and re-inserted
// with exact counts and locations; removed IDs are purged outright.
func (idx *Index) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	for _, id := range removed {
		idx.purge(id)
	}
	for _, g := range edited {
		idx.purge(g.ID())
		idx.insertGraph(g)
	}
	for _, g := range added {
		idx.insertGraph(g)
	}
}

// Name implements method.Method. Thread count is part of the name so that
// Grapes1 and Grapes6 are distinguishable in reports.
func (idx *Index) Name() string {
	if idx.opts.Threads == 1 {
		return "grapes1"
	}
	return "grapes" + itoa(idx.opts.Threads)
}

// Mode implements method.Method.
func (idx *Index) Mode() method.Mode { return method.ModeSubgraph }

// Dataset implements method.Method.
func (idx *Index) Dataset() *dataset.Dataset { return idx.ds }

// Filter implements method.Method, identically to GGSX: count domination
// over all query paths.
func (idx *Index) Filter(q *graph.Graph) []int32 {
	qc := pathfeat.SimplePaths(q, idx.opts.MaxPathLen)
	n := idx.ds.Len()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	remaining := n
	for k, c := range qc {
		if remaining == 0 {
			break
		}
		postings := idx.features[k]
		if postings == nil {
			return nil
		}
		for id := 0; id < n; id++ {
			if alive[id] && postings[int32(id)].count < c {
				alive[id] = false
				remaining--
			}
		}
	}
	out := make([]int32, 0, remaining)
	for id := 0; id < n; id++ {
		if alive[id] {
			out = append(out, int32(id))
		}
	}
	return out
}

// Verify implements method.Method: location-restricted sub-iso testing.
// Any embedding of q must lie within the union of the locations of q's
// path features (every query vertex sits on some edge feature), so it
// suffices to test the connected components of the induced subgraph on
// that union.
func (idx *Index) Verify(q *graph.Graph, id int32) bool {
	g := idx.ds.Graph(id)
	if q.NumVertices() == 0 {
		return true
	}
	region := idx.matchRegion(q, id)
	if len(region) < q.NumVertices() {
		return false
	}
	if len(region) == g.NumVertices() {
		// Region covers the whole graph: skip the extraction.
		return iso.Contains(idx.algo, q, g)
	}
	sub, _, err := g.InducedSubgraph(region)
	if err != nil {
		// Defensive: fall back to the full graph rather than mis-answer.
		return iso.Contains(idx.algo, q, g)
	}
	if q.IsConnected() {
		for _, comp := range sub.ConnectedComponents() {
			if len(comp) < q.NumVertices() {
				continue
			}
			compG, _, err := sub.InducedSubgraph(comp)
			if err != nil {
				continue
			}
			if iso.Contains(idx.algo, q, compG) {
				return true
			}
		}
		return false
	}
	return iso.Contains(idx.algo, q, sub)
}

// matchRegion returns the sorted union of location vertices of q's path
// features in graph id. Features of length ≥ 1 edge cover every query
// vertex with an incident edge; for isolated query vertices (and for
// edge-free queries) the single-label features of their labels are added,
// so the region provably contains every possible embedding image.
func (idx *Index) matchRegion(q *graph.Graph, id int32) []int32 {
	qc := pathfeat.SimplePaths(q, idx.opts.MaxPathLen)
	isolated := make(map[pathfeat.Key]struct{})
	for v := int32(0); int(v) < q.NumVertices(); v++ {
		if q.Degree(v) == 0 {
			isolated[pathfeat.Encode([]graph.Label{q.Label(v)})] = struct{}{}
		}
	}
	set := make(map[int32]struct{})
	for k := range qc {
		if pathfeat.KeyLen(k) < 2 {
			if _, need := isolated[k]; !need {
				continue
			}
		}
		if p, ok := idx.features[k][id]; ok {
			for _, v := range p.locs {
				set[v] = struct{}{}
			}
		}
	}
	region := make([]int32, 0, len(set))
	for v := range set {
		region = append(region, v)
	}
	sortInt32s(region)
	return region
}

// VerifyBatch implements method.BatchVerifier with the configured worker
// pool, mirroring Grapes' parallel verification stage.
func (idx *Index) VerifyBatch(q *graph.Graph, ids []int32) []bool {
	out := make([]bool, len(ids))
	if len(ids) == 0 {
		return out
	}
	workers := idx.opts.Threads
	if workers > len(ids) {
		workers = len(ids)
	}
	if workers <= 1 {
		for i, id := range ids {
			out[i] = idx.Verify(q, id)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = idx.Verify(q, ids[i])
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// FeatureCount returns the number of distinct indexed path features.
func (idx *Index) FeatureCount() int { return len(idx.features) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func sortInt32s(s []int32) {
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			for j := i; j >= gap && s[j-gap] > s[j]; j -= gap {
				s[j-gap], s[j] = s[j], s[j-gap]
			}
		}
	}
}
