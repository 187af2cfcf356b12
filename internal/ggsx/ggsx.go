// Package ggsx implements GraphGrepSX [Bonnici et al., PRIB 2010]: a
// filter-then-verify subgraph-query method that indexes the label paths
// (up to a configurable length, 4 edges by default as in the paper) of
// every dataset graph with per-graph occurrence counts.
//
// The original keeps the paths in a suffix trie. This index keeps one
// posting column per path feature instead, keyed by the feature's hashed
// 64-bit ID (see pathfeat.Vector): the IDs of the graphs the feature
// occurs in, ascending, and beside them its count in each — all columns
// laid end to end in flat arrays, in feature order (pathfeat.Columns, the
// layout the cache's GCindex shares). Two paths whose
// IDs collide share a column holding the sum of their counts, which — by
// the argument in the Vector comment — can admit a false candidate but
// never lose an answer, and every candidate is verified.
//
// Filtering intersects the columns of the query's features, keeping the
// graphs whose count of every feature dominates the query's; verification
// runs VF2. A dataset mutation deletes exactly the postings of the graphs
// it removes or replaces — re-deriving their vectors, since the index
// keeps one graph pointer per ID and no vectors — and merges in those of
// the graphs it brings, so the index always equals a fresh build over the
// current dataset and a mutation costs what it changes.
package ggsx

import (
	"cmp"
	"runtime"
	"slices"

	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// Options configures index construction.
type Options struct {
	// MaxPathLen is the maximum path length in edges (default 4, the
	// paper's configuration for GGSX and Grapes).
	MaxPathLen int
}

func (o Options) withDefaults() Options {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = 4
	}
	return o
}

// Index is a built GraphGrepSX index over a dataset. It implements
// method.Method for subgraph queries.
type Index struct {
	ds   *dataset.Dataset
	opts Options
	cols pathfeat.Columns
	held []*graph.Graph // held[id]: the graph whose postings id has, nil if none
	algo iso.Algorithm
}

// New builds the GGSX index over ds.
func New(ds *dataset.Dataset, opts Options) *Index {
	idx := &Index{ds: ds, opts: opts.withDefaults(), algo: iso.VF2{}}
	var live []*graph.Graph
	for _, g := range ds.Graphs() {
		if g != nil { // nil: tombstone of a removed graph
			live = append(live, g)
		}
	}
	idx.ApplyDatasetMutation(live, nil, nil)
	return idx
}

// Indexed reports whether g's postings are the ones its ID has: an
// added or edited graph for which it holds is skipped by
// ApplyDatasetMutation, so a resync re-indexes only what changed.
// Graphs are immutable, so the same pointer is the same content.
func (idx *Index) Indexed(g *graph.Graph) bool {
	id := int(g.ID())
	return id < len(idx.held) && idx.held[id] == g
}

// ApplyDatasetMutation implements method.DynamicMethod. An ID loses its
// postings when the mutation removes it, when it lies past the end of the
// dataset (a snapshot load can shorten it), or when an added or edited
// graph that is not Indexed names it; then those graphs are merged in.
// That makes the call idempotent, and it is also how New builds — a
// mutation of the empty index adding every graph — so the index equals a
// fresh build over the current dataset whatever came before.
//
// The cost follows the mutation: one vector extraction per graph whose
// postings go (the held graph's vector is re-derived; extraction is
// deterministic) and per graph that comes, spread over GOMAXPROCS
// goroutines; a binary search per posting that goes; and one block move
// of the postings behind the first one touched, per Remove and per Merge.
// A resync that re-asserts unchanged graphs costs nothing for them.
func (idx *Index) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	var gone, fresh []posted
	drop := func(id int) {
		if id < len(idx.held) && idx.held[id] != nil {
			gone = append(gone, posted{int32(id), idx.held[id]})
			idx.held[id] = nil
		}
	}
	for _, id := range removed {
		drop(int(id))
	}
	n := idx.ds.Len()
	for id := n; id < len(idx.held); id++ {
		drop(id)
	}
	if len(idx.held) > n {
		idx.held = idx.held[:n]
	} else {
		idx.held = append(idx.held, make([]*graph.Graph, n-len(idx.held))...)
	}
	for _, gs := range [][]*graph.Graph{added, edited} {
		for _, g := range gs {
			if !idx.Indexed(g) {
				drop(int(g.ID()))
				idx.held[g.ID()] = g
				fresh = append(fresh, posted{g.ID(), g})
			}
		}
	}
	idx.cols.Remove(idx.rows(gone))
	idx.cols.Merge(idx.rows(fresh))
}

// posted is an ID and the graph its postings are derived from.
type posted struct {
	id int32
	g  *graph.Graph
}

// rows returns the vectors of ps under their IDs, ascending by ID, as
// pathfeat.Columns takes them; the extractions run over GOMAXPROCS
// goroutines.
func (idx *Index) rows(ps []posted) []pathfeat.Row {
	slices.SortFunc(ps, func(a, b posted) int { return cmp.Compare(a.id, b.id) })
	rows := make([]pathfeat.Row, len(ps))
	method.NewLimiter(runtime.GOMAXPROCS(0)-1).ParallelFor(len(ps), func(i int) {
		rows[i] = pathfeat.Row{ID: ps[i].id, Vec: pathfeat.SimplePathVector(ps[i].g, idx.opts.MaxPathLen)}
	})
	return rows
}

// Name implements method.Method.
func (idx *Index) Name() string { return "ggsx" }

// Mode implements method.Method.
func (idx *Index) Mode() method.Mode { return method.ModeSubgraph }

// Dataset implements method.Method.
func (idx *Index) Dataset() *dataset.Dataset { return idx.ds }

// Filter implements method.Method: graphs whose path counts dominate the
// query's, ascending.
func (idx *Index) Filter(q *graph.Graph) []int32 {
	return idx.FilterVector(pathfeat.SimplePathVector(q, idx.opts.MaxPathLen))
}

// FilterPathLen implements method.VectorFilter.
func (idx *Index) FilterPathLen() int { return idx.opts.MaxPathLen }

// FilterVector implements method.VectorFilter: the intersection of the
// query features' columns, keeping the graphs that hold each feature at
// least as often as the query. It starts from the shortest column and
// gallops through the others, so its cost follows the postings touched,
// not features × dataset size.
func (idx *Index) FilterVector(qv pathfeat.Vector) []int32 {
	if len(qv) == 0 {
		return idx.ds.AllIDs()
	}
	c := &idx.cols
	type span struct{ lo, hi uint32 }
	spans := make([]span, len(qv))
	shortest := 0
	for i, k := 0, 0; i < len(qv); i++ {
		var ok bool
		if k, ok = c.Find(qv[i].ID, k); !ok {
			return nil
		}
		lo, hi := c.Column(k)
		spans[i] = span{lo, hi}
		if hi-lo < spans[shortest].hi-spans[shortest].lo {
			shortest = i
		}
	}
	first := spans[shortest]
	out := make([]int32, 0, first.hi-first.lo)
	for at := first.lo; at < first.hi; at++ {
		if c.Counts[at] >= qv[shortest].Count {
			out = append(out, c.IDs[at])
		}
	}
	for i, sp := range spans {
		if i == shortest {
			continue
		}
		if len(out) == 0 {
			break
		}
		ids, counts := c.IDs[sp.lo:sp.hi], c.Counts[sp.lo:sp.hi]
		kept, at := 0, 0
		for _, id := range out {
			at += gallop(ids[at:], id)
			if at == len(ids) {
				break
			}
			if ids[at] == id && counts[at] >= qv[i].Count {
				out[kept] = id
				kept++
			}
		}
		out = out[:kept]
	}
	return out
}

// gallop returns the position of the first element of ids that is ≥ id
// (len(ids) if none): exponential steps to bracket it, then binary search
// inside the bracket.
func gallop(ids []int32, id int32) int {
	hi := 1
	for hi <= len(ids) && ids[hi-1] < id {
		hi *= 2
	}
	lo := hi / 2
	at, _ := slices.BinarySearch(ids[lo:min(hi-1, len(ids))], id)
	return lo + at
}

// Verify implements method.Method using VF2, the verifier GGSX ships with.
func (idx *Index) Verify(q *graph.Graph, id int32) bool {
	return iso.Contains(idx.algo, q, idx.ds.Graph(id))
}

// FeatureCount returns the number of distinct feature IDs with postings —
// the number of columns.
func (idx *Index) FeatureCount() int { return len(idx.cols.Feats) }
