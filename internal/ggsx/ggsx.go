// Package ggsx implements GraphGrepSX [Bonnici et al., PRIB 2010]: a
// filter-then-verify subgraph-query method that indexes the label paths
// (up to a configurable length, 4 edges by default as in the paper) of
// every dataset graph with per-graph occurrence counts.
//
// The original keeps the paths in a suffix trie. This index keeps one
// posting column per path feature instead, keyed by the feature's hashed
// 64-bit ID (see pathfeat.Vector): the IDs of the graphs the feature
// occurs in, ascending, and beside them its count in each — all columns
// laid end to end in flat arrays, in feature order. Two paths whose
// IDs collide share a column holding the sum of their counts, which — by
// the argument in the Vector comment — can admit a false candidate but
// never lose an answer, and every candidate is verified.
//
// Filtering intersects the columns of the query's features, keeping the
// graphs whose count of every feature dominates the query's; verification
// runs VF2. A dataset mutation deletes the postings of the graphs it
// removes or replaces and merges in those of the graphs it brings, exactly,
// so the index always equals a fresh build over the current dataset.
package ggsx

import (
	"cmp"
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
	cols columns
	algo iso.Algorithm
}

// columns holds every feature's postings in four flat, pointer-free
// arrays. Column k belongs to feature feats[k] — feats ascends — and
// occupies positions ends[k-1] (0 for k = 0) up to ends[k] of ids and
// counts: the graphs the feature occurs in, by ascending ID, and its
// occurrence count in each. No column is empty.
type columns struct {
	feats  []uint64
	ends   []uint32
	ids    []int32
	counts []int32
}

// column returns the bounds of column k in ids and counts.
func (c *columns) column(k int) (lo, hi uint32) {
	if k > 0 {
		lo = c.ends[k-1]
	}
	return lo, c.ends[k]
}

// posting is one (feature, graph, count) fact on its way into the columns.
type posting struct {
	feat      uint64
	id, count int32
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

// ApplyDatasetMutation implements method.DynamicMethod. Every ID the
// mutation names loses its postings first — exactly, with the columns that
// empties — as does any ID past the end of the dataset (a snapshot load
// can shorten it); then added and edited graphs are merged in. That makes
// the call idempotent, and it is also how New builds — a mutation of the
// empty index adding every graph — so the index equals a fresh build over
// the current dataset whatever came before, and its size follows the
// dataset, not the number of mutations.
//
// The price of exactness is a cost that follows the index, not the
// mutation: the index does not remember which features a graph had, so
// dropping one scans every posting, and merging moves the columns behind
// the first one touched. Both are linear passes over flat arrays (≈2 ns a
// posting: ≈0.7 ms for the 320,000 postings of an 800-graph molecule
// dataset) and publishing a dataset generation is itself O(dataset), but
// no query runs meanwhile, so a mutation of a much larger dataset stalls
// its queries proportionally longer.
func (idx *Index) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	dead := make([]bool, idx.ds.Len())
	for _, id := range removed {
		dead[id] = true
	}
	var fresh []posting
	for _, gs := range [][]*graph.Graph{added, edited} {
		for _, g := range gs {
			dead[g.ID()] = true
			for _, fc := range pathfeat.SimplePathVector(g, idx.opts.MaxPathLen) {
				fresh = append(fresh, posting{fc.ID, g.ID(), fc.Count})
			}
		}
	}
	idx.cols.drop(dead)
	idx.cols.merge(fresh)
}

// drop deletes, in place, the postings of the graphs dead marks or is too
// short to name, and the columns that empties.
func (c *columns) drop(dead []bool) {
	var lo uint32
	nIDs, nCols := uint32(0), 0
	for k, hi := range c.ends {
		begin := nIDs
		for at := lo; at < hi; at++ {
			if id := c.ids[at]; int(id) < len(dead) && !dead[id] {
				c.ids[nIDs], c.counts[nIDs] = id, c.counts[at]
				nIDs++
			}
		}
		lo = hi
		if nIDs > begin {
			c.feats[nCols], c.ends[nCols] = c.feats[k], nIDs
			nCols++
		}
	}
	c.feats, c.ends = c.feats[:nCols], c.ends[:nCols]
	c.ids, c.counts = c.ids[:nIDs], c.counts[:nIDs]
}

// merge adds the postings fresh to c, in place. No graph of fresh may
// have postings in c. The arrays grow by what fresh brings (amortised, so
// most merges allocate nothing) and are filled from the back, each old
// column moving up once to its final position: nothing is overwritten
// before it has moved.
func (c *columns) merge(fresh []posting) {
	slices.SortFunc(fresh, func(a, b posting) int {
		return cmp.Or(cmp.Compare(a.feat, b.feat), cmp.Compare(a.id, b.id))
	})
	opened := 0 // columns fresh opens
	for j, k := 0, 0; j < len(fresh); j++ {
		if j == 0 || fresh[j].feat != fresh[j-1].feat {
			at, found := slices.BinarySearch(c.feats[k:], fresh[j].feat)
			k += at
			if !found {
				opened++
			}
		}
	}
	k := len(c.feats) // old columns from k on are in their final place
	c.feats = slices.Grow(c.feats, opened)[:k+opened]
	c.ends = slices.Grow(c.ends, opened)[:k+opened]
	c.ids = slices.Grow(c.ids, len(fresh))[:len(c.ids)+len(fresh)]
	c.counts = slices.Grow(c.counts, len(fresh))[:len(c.ids)]
	col, at := len(c.feats), len(c.ids) // final columns from col on, postings from at on, are written
	for j := len(fresh); j > 0; {
		feat := fresh[j-1].feat
		// The old columns past feat move up as one block.
		from, found := slices.BinarySearch(c.feats[:k], feat)
		if found {
			from++
		}
		if from < k {
			lo, _ := c.column(from)
			hi := c.ends[k-1]
			at -= int(hi - lo)
			copy(c.ids[at:], c.ids[lo:hi])
			copy(c.counts[at:], c.counts[lo:hi])
			col -= k - from
			copy(c.feats[col:], c.feats[from:k])
			for i := k - 1; i >= from; i-- {
				c.ends[col+i-from] = c.ends[i] + uint32(at) - lo
			}
			k = from
		}
		// feat's column: its old postings and its fresh ones, by graph ID.
		var lo, hi uint32
		if found {
			k--
			lo, hi = c.column(k)
		}
		end := uint32(at)
		for ; j > 0 && fresh[j-1].feat == feat; j-- {
			for ; lo < hi && c.ids[hi-1] > fresh[j-1].id; hi-- {
				at--
				c.ids[at], c.counts[at] = c.ids[hi-1], c.counts[hi-1]
			}
			at--
			c.ids[at], c.counts[at] = fresh[j-1].id, fresh[j-1].count
		}
		at -= int(hi - lo)
		copy(c.ids[at:], c.ids[lo:hi])
		copy(c.counts[at:], c.counts[lo:hi])
		col--
		c.feats[col], c.ends[col] = feat, end
	}
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
		// qv and feats both ascend, so each search resumes where the last
		// one ended.
		at, ok := slices.BinarySearch(c.feats[k:], qv[i].ID)
		if !ok {
			return nil
		}
		k += at
		lo, hi := c.column(k)
		spans[i] = span{lo, hi}
		if hi-lo < spans[shortest].hi-spans[shortest].lo {
			shortest = i
		}
	}
	first := spans[shortest]
	out := make([]int32, 0, first.hi-first.lo)
	for at := first.lo; at < first.hi; at++ {
		if c.counts[at] >= qv[shortest].Count {
			out = append(out, c.ids[at])
		}
	}
	for i, sp := range spans {
		if i == shortest {
			continue
		}
		if len(out) == 0 {
			break
		}
		ids, counts := c.ids[sp.lo:sp.hi], c.counts[sp.lo:sp.hi]
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
func (idx *Index) FeatureCount() int { return len(idx.cols.feats) }
