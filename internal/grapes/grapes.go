// Package grapes implements Grapes [Giugno et al., PLoS One 2013]: a
// filter-then-verify subgraph-query method that is GraphGrepSX's label-path
// filter plus location-restricted verification. The index is a ggsx.Index —
// its filter, vector filter and posting columns are GGSX's — and beside it,
// per dataset graph, the vertices the occurrences of each path cover
// (pathfeat.PathLocations). Verification is restricted to the connected
// components of the subgraph induced by the locations of the query's paths,
// and runs on a configurable worker pool — the paper evaluates Grapes1
// (1 thread) and Grapes6 (6 threads). As in the paper's modified build,
// query processing stops at the first match in each dataset graph.
package grapes

import (
	"slices"
	"strconv"
	"sync"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
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

// Index is a built Grapes index. It implements method.Method,
// method.VectorFilter, method.DynamicMethod and method.BatchVerifier for
// subgraph queries; Filter, FilterVector and FilterPathLen are GGSX's.
type Index struct {
	*ggsx.Index
	opts Options
	locs []pathfeat.PathLocations // by graph ID; empty for removed graphs
}

// New builds the Grapes index over ds.
func New(ds *dataset.Dataset, opts Options) *Index {
	opts = opts.withDefaults()
	idx := &Index{
		Index: ggsx.New(ds, ggsx.Options{MaxPathLen: opts.MaxPathLen}),
		opts:  opts,
		locs:  make([]pathfeat.PathLocations, ds.Len()),
	}
	for _, g := range ds.Graphs() {
		if g != nil { // nil: tombstone of a removed graph
			idx.locate(g)
		}
	}
	return idx
}

// locate computes g's location index.
func (idx *Index) locate(g *graph.Graph) {
	idx.locs[g.ID()] = pathfeat.SimplePathLocations(g, idx.opts.MaxPathLen)
}

// ApplyDatasetMutation implements method.DynamicMethod. GGSX's columns
// follow the mutation exactly: tombstones for the graphs that leave them,
// and a new delta written for the rest (ggsx.Index.ApplyDatasetMutation).
// Locations bound
// the region Verify searches, so a stale set could shrink the search below
// the true occurrences — a false negative: removed graphs lose theirs, and
// the added and edited graphs GGSX re-indexes — those it does not already
// hold, ggsx.Index.Indexed — have theirs computed afresh; the others keep
// theirs, so a resync locates only what changed.
func (idx *Index) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	var stale []*graph.Graph
	for _, gs := range [][]*graph.Graph{added, edited} {
		for _, g := range gs {
			if !idx.Indexed(g) {
				stale = append(stale, g)
			}
		}
	}
	idx.Index.ApplyDatasetMutation(added, edited, removed)
	if n := idx.Dataset().Len(); n < len(idx.locs) {
		clear(idx.locs[n:]) // a snapshot load can shorten the dataset
		idx.locs = idx.locs[:n]
	} else {
		idx.locs = append(idx.locs, make([]pathfeat.PathLocations, n-len(idx.locs))...)
	}
	for _, id := range removed {
		idx.locs[id] = pathfeat.PathLocations{}
	}
	for _, g := range stale {
		idx.locate(g)
	}
}

// Name implements method.Method. Thread count is part of the name so that
// Grapes1 and Grapes6 are distinguishable in reports.
func (idx *Index) Name() string { return "grapes" + strconv.Itoa(idx.opts.Threads) }

// Verify implements method.Method: location-restricted sub-iso testing.
func (idx *Index) Verify(q *graph.Graph, id int32) bool {
	return idx.verify(q, idx.queryPaths(q), id)
}

// queryPaths returns the IDs of q's paths of ≥ 1 edge, ascending.
func (idx *Index) queryPaths(q *graph.Graph) []uint64 {
	return pathfeat.SimplePathLocations(q, idx.opts.MaxPathLen).IDs
}

// verify tests q ⊆ G_id given q's path IDs. Any embedding of q lies within
// the region (see region), so it suffices to test the connected components
// of the subgraph the region induces.
func (idx *Index) verify(q *graph.Graph, qPaths []uint64, id int32) bool {
	if q.NumVertices() == 0 {
		return true
	}
	g := idx.Dataset().Graph(id)
	region := idx.region(q, qPaths, g)
	if len(region) < q.NumVertices() {
		return false
	}
	if len(region) == g.NumVertices() {
		// Region covers the whole graph: skip the extraction.
		return iso.Contains(iso.VF2{}, q, g)
	}
	sub, _, err := g.InducedSubgraph(region)
	if err != nil {
		// Defensive: fall back to the full graph rather than mis-answer.
		return iso.Contains(iso.VF2{}, q, g)
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
			if iso.Contains(iso.VF2{}, q, compG) {
				return true
			}
		}
		return false
	}
	return iso.Contains(iso.VF2{}, q, sub)
}

// region returns, ascending, the vertices of g that the paths under q's
// path IDs cover — every image of a query vertex with an incident edge
// — and those carrying the label of an isolated query vertex, so it
// contains every possible embedding image. An ID that collides can only
// add vertices.
func (idx *Index) region(q *graph.Graph, qPaths []uint64, g *graph.Graph) []int32 {
	in := make([]bool, g.NumVertices())
	loc := &idx.locs[g.ID()]
	k := 0
	for _, p := range qPaths {
		// qPaths and loc.IDs both ascend, so each search resumes where
		// the last one ended.
		at, found := slices.BinarySearch(loc.IDs[k:], p)
		k += at
		if found {
			for _, v := range loc.Vertices(k) {
				in[v] = true
			}
		}
	}
	for v := range int32(q.NumVertices()) {
		if q.Degree(v) == 0 {
			for u := range int32(g.NumVertices()) {
				in[u] = in[u] || g.Label(u) == q.Label(v)
			}
		}
	}
	var region []int32
	for v, ok := range in {
		if ok {
			region = append(region, int32(v))
		}
	}
	return region
}

// VerifyBatch implements method.BatchVerifier with the configured worker
// pool, mirroring Grapes' parallel verification stage. q's paths are
// extracted once for the whole batch.
func (idx *Index) VerifyBatch(q *graph.Graph, ids []int32) []bool {
	out := make([]bool, len(ids))
	if len(ids) == 0 {
		return out
	}
	qPaths := idx.queryPaths(q)
	workers := min(idx.opts.Threads, len(ids))
	if workers <= 1 {
		for i, id := range ids {
			out[i] = idx.verify(q, qPaths, id)
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
				out[i] = idx.verify(q, qPaths, ids[i])
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
