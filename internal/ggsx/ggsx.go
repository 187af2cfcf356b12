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
// runs VF2. Each feature's column is found through the columns' directory
// in one step. The intersection starts from the shortest column, and a
// survivor is checked against a dense column (one holding at least 32
// graphs and 1/32 of them) by one bit of its bitmap when the query's count
// is 1, and against the other columns by galloping.
//
// The postings are log-structured, after the LSM-tree of O'Neil et al.
// (Acta Informatica, 1996): a main set of columns, a tombstone bit per ID
// whose main postings are dead, and a small delta set of columns holding
// the graphs indexed since the main one was built.
// Neither set is ever edited. A mutation sets one bit per graph it takes
// out of the main columns and writes a new delta for the rest, in one
// linear pass over the old delta: the delta's postings are all it copies.
// Once the delta's postings, or the tombstoned ones, pass a fixed share of
// the main columns, one linear pass compacts both into a fresh main set.
// Filtering runs the intersection over each set, masking the tombstones in
// the main one, and merges the two results, so the index answers exactly
// as a fresh build over the current dataset does.
package ggsx

import (
	"cmp"
	"runtime"
	"slices"

	"graphcache/internal/bitset"
	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// compactShare sets when the index compacts: once the delta's postings,
// or the tombstoned postings of the main columns, exceed 1/compactShare of
// the main columns' postings. A compaction copies every posting once, so
// at 1/8 it costs each posting that came or went about eight copies'
// worth, in exchange for a delta that is short next to the main columns.
const compactShare = 8

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
	// main holds the postings of the graphs indexed at the last
	// compaction; dead marks the IDs whose main postings are no longer
	// theirs, and deadPostings counts those postings. Every ID in main
	// is below dead.Len().
	main         pathfeat.Columns
	dead         *bitset.Set
	deadPostings int
	// delta holds the postings of the graphs indexed since. An ID has
	// postings in delta only if it has none in main or they are dead.
	delta pathfeat.Columns
	held  []slot // held[id]: the graph whose postings id has
	algo  iso.Algorithm
}

// slot is what the index holds under one ID.
type slot struct {
	g       *graph.Graph // nil if the ID has no postings
	inDelta bool         // the postings are in delta, not main
	posts   int32        // how many postings g has
}

// New builds the GGSX index over ds.
func New(ds *dataset.Dataset, opts Options) *Index {
	idx := &Index{ds: ds, opts: opts.withDefaults(), dead: bitset.New(0), algo: iso.VF2{}}
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
	return id < len(idx.held) && idx.held[id].g == g
}

// ApplyDatasetMutation implements method.DynamicMethod. An ID loses its
// postings when the mutation removes it, when it lies past the end of the
// dataset (a snapshot load can shorten it), or when an added or edited
// graph that is not Indexed names it; then those graphs are indexed.
// That makes the call idempotent, and it is also how New builds — a
// mutation of the empty index adding every graph — so the index equals a
// fresh build over the current dataset whatever came before.
//
// The cost follows the mutation. An ID whose postings are in the main
// columns loses them by setting its tombstone bit. Each graph that comes
// costs one vector extraction (spread over GOMAXPROCS goroutines) and a
// pathfeat.Build of its postings. Then one pathfeat.Columns.Renumber pass
// writes the next delta: the old delta's postings, less those of the IDs
// that leave it, merged with the new ones — so the postings that move are
// the delta's alone. The mutation that takes the delta or the tombstones
// past 1/compactShare of the main columns then compacts: one more
// Renumber pass copies the live main postings and the delta into fresh
// main columns. A resync that re-asserts unchanged graphs costs nothing
// for them.
func (idx *Index) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {
	var keep []int32 // delta ID → itself, or -1 if it leaves; nil while none does
	var fresh []posted
	drop := func(id int) {
		if id >= len(idx.held) || idx.held[id].g == nil {
			return
		}
		if s := idx.held[id]; s.inDelta {
			if keep == nil {
				keep = make([]int32, len(idx.held))
				for i := range keep {
					keep[i] = int32(i)
				}
			}
			keep[id] = -1
		} else {
			idx.dead.Set(id)
			idx.deadPostings += int(s.posts)
		}
		idx.held[id] = slot{}
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
		idx.held = append(idx.held, make([]slot, n-len(idx.held))...)
	}
	for _, gs := range [][]*graph.Graph{added, edited} {
		for _, g := range gs {
			if !idx.Indexed(g) {
				drop(int(g.ID()))
				idx.held[g.ID()].g = g
				fresh = append(fresh, posted{g.ID(), g})
			}
		}
	}
	rows := idx.extract(fresh)
	for _, r := range rows {
		idx.held[r.ID].inDelta = true
		idx.held[r.ID].posts = int32(len(r.Vec))
	}
	if len(rows) > 0 || keep != nil {
		in := pathfeat.Build(rows)
		var next pathfeat.Columns
		idx.delta.Renumber(&next, keep, &in)
		idx.delta = next
	}
	if limit := len(idx.main.IDs) / compactShare; len(idx.delta.IDs) > limit || idx.deadPostings > limit {
		idx.compact()
	}
}

// compact makes the flattened index the main columns, with no tombstones
// and an empty delta. Over empty main columns (New), the delta is that
// index already.
func (idx *Index) compact() {
	if len(idx.main.IDs) == 0 {
		idx.main = idx.delta
	} else {
		idx.main = idx.flattened()
	}
	idx.dead = bitset.New(len(idx.held))
	idx.deadPostings = 0
	idx.delta = pathfeat.Columns{}
	for id := range idx.held {
		idx.held[id].inDelta = false
	}
}

// flattened returns, in new arrays, the columns a fresh build over the
// current dataset has: the main postings whose ID is not tombstoned and
// the delta's, merged in one Renumber pass — which copies the main
// columns between the delta's features as blocks when nothing is
// tombstoned. The arrays are sized for the result's postings, and for the
// columns of both sets.
func (idx *Index) flattened() pathfeat.Columns {
	var live []int32 // main ID → itself, or -1 if tombstoned; nil if none is
	if idx.deadPostings > 0 {
		live = make([]int32, idx.dead.Len())
		for id := range live {
			live[id] = int32(id)
			if idx.dead.Get(id) {
				live[id] = -1
			}
		}
	}
	main, delta := &idx.main, &idx.delta
	feats, postings := len(main.Feats)+len(delta.Feats), len(main.IDs)-idx.deadPostings+len(delta.IDs)
	out := pathfeat.Columns{
		Feats:  make([]uint64, 0, feats),
		Ends:   make([]uint32, 0, feats),
		IDs:    make([]int32, 0, postings),
		Counts: make([]int32, 0, postings),
	}
	main.Renumber(&out, live, delta)
	return out
}

// posted is an ID and the graph its postings are derived from.
type posted struct {
	id int32
	g  *graph.Graph
}

// extract returns the vectors of ps under their IDs, ascending by ID, as
// pathfeat.Columns takes them; the extractions run over GOMAXPROCS
// goroutines.
func (idx *Index) extract(ps []posted) []pathfeat.Row {
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
// least as often as the query. It runs over the main columns, masking
// tombstoned IDs, and over the delta, whose IDs the mask leaves out of
// the main result, and merges the two; an empty delta costs one length
// check. Each intersection starts from the shortest column and checks its
// survivors against the others by a bit of a dense column's bitmap or by
// galloping, so its cost follows the survivors and the postings touched,
// not features × dataset size.
func (idx *Index) FilterVector(qv pathfeat.Vector) []int32 {
	if len(qv) == 0 {
		return idx.ds.AllIDs()
	}
	spans := make([]span, len(qv))
	var fresh []int32
	if len(idx.delta.IDs) > 0 {
		fresh = intersect(&idx.delta, qv, spans, nil, nil)
	}
	var dead *bitset.Set
	if idx.deadPostings > 0 {
		dead = idx.dead
	}
	return intersect(&idx.main, qv, spans, dead, fresh)
}

// span is one column's bounds in IDs and Counts, and the column.
type span struct{ lo, hi, k uint32 }

// intersect returns the IDs of c whose count of every feature of qv
// dominates the query's, leaving out the IDs dead marks (nil: none), and
// merged with extra, a sorted list that shares none of them. spans is
// scratch of len(qv). The survivors of the shortest column are checked
// against a dense column with one bit load each when the query's count is
// 1 — every posting counts at least that — and against the others by
// galloping.
func intersect(c *pathfeat.Columns, qv pathfeat.Vector, spans []span, dead *bitset.Set, extra []int32) []int32 {
	shortest := 0
	for i, k := 0, 0; i < len(qv); i++ {
		var ok bool
		if k, ok = c.Find(qv[i].ID, k); !ok {
			return extra
		}
		lo, hi := c.Column(k)
		spans[i] = span{lo, hi, uint32(k)}
		if hi-lo < spans[shortest].hi-spans[shortest].lo {
			shortest = i
		}
	}
	first := spans[shortest]
	out := make([]int32, 0, int(first.hi-first.lo)+len(extra))
	for at := first.lo; at < first.hi; at++ {
		if id := c.IDs[at]; c.Counts[at] >= qv[shortest].Count && (dead == nil || !dead.Get(int(id))) {
			out = append(out, id)
		}
	}
	d := 0 // the dense columns' cursor: spans ascend by column
	for i, sp := range spans {
		if i == shortest {
			continue
		}
		if len(out) == 0 {
			break
		}
		kept := 0
		if qv[i].Count == 1 {
			var bits []uint32
			if bits, d = c.Bitmap(int(sp.k), d); bits != nil {
				for _, id := range out {
					out[kept] = id
					kept += int(bits[id/32] >> (id % 32) & 1)
				}
				out = out[:kept]
				continue
			}
		}
		ids, counts := c.IDs[sp.lo:sp.hi], c.Counts[sp.lo:sp.hi]
		at := 0
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
	// Merge extra in from the back, where out has room for it.
	i, j := len(out)-1, len(extra)-1
	out = out[:len(out)+len(extra)]
	for k := len(out) - 1; j >= 0; k-- {
		if i >= 0 && out[i] > extra[j] {
			out[k], i = out[i], i-1
		} else {
			out[k], j = extra[j], j-1
		}
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
