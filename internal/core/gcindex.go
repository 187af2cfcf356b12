package core

import (
	"cmp"
	"math"
	"slices"

	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

// entry is one cached (or windowed) query, and the cache's only record of
// it: the rows the paper's cached-queries store and Statistics Manager
// keep under the query's serial number (§6.1), in one struct.
type entry struct {
	serial int64
	g      *graph.Graph
	answer []int32 // sorted dataset-graph IDs
	// vec is the query's path-feature vector (sorted by feature ID), so
	// index deltas never enumerate simple paths. hash is g.IsoKey(), the
	// query's isomorphism-invariant key: the exact-lookup key, and the key
	// the router's affinity hashes onto its ring. The query path hands both
	// over; see newEntry.
	vec  pathfeat.Vector
	hash uint64
	// ledger holds the first-execution figures and the hit counters: the
	// query's statistics row (see EntryStats).
	ledger
}

// newEntry returns the record of query g, first seen as serial, with its
// answer set, its feature vector and its key. Its recency starts at its
// own serial.
func newEntry(serial int64, g *graph.Graph, answer []int32, vec pathfeat.Vector, hash uint64) *entry {
	return &entry{serial: serial, g: g, answer: answer, vec: vec, hash: hash, ledger: ledger{lastHit: serial}}
}

// score is the query's expensiveness: verification over filtering time
// (§6.2).
func (e *entry) score() float64 {
	if e.filterNS <= 0 {
		if e.verifyNS > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return e.verifyNS / e.filterNS
}

// queryIndex is GCindex: a single combined subgraph/supergraph feature
// index over the cached query graphs (§6.1, loosely based on the
// GraphGrepSX design). One structure answers both containment probes:
//
//   - sub-candidates: cached queries g' that may contain the new query
//     (every feature of q occurs at least as often in g');
//   - super-candidates: cached queries g” possibly contained in q (every
//     feature of g” occurs at least as often in q), found by feature-
//     coverage counting against per-query feature totals.
//
// The layout is GGSX's, flat and pointer-free: every cached query occupies
// a slot, slots are numbered in ascending-serial order, and the postings
// are a pathfeat.Columns keyed by slot — for each feature ID, ascending,
// the (slot, count) postings of the slots holding it, ascending. A probe
// finds the column of each of the query vector's features by a search
// that resumes where the last one ended (pathfeat.Columns.Find), bumping
// per-slot counters in two flat []int32 scratch arrays, then scans the slots once — no sort (slot order is serial
// order), and zero allocations when the caller provides pooled scratch
// (see candidatesInto).
//
// Ahead of both probes it answers the exact-match lookup (see exact): each
// slot also records its entry's isomorphism-invariant key (graph.IsoKey),
// so finding the cached queries that can be isomorphic to a new one is a
// scan of one []uint64 column, and a query the lookup answers never has
// its path features extracted.
//
// Feature IDs are 64-bit hashes of the feature keys (pathfeat.Vector), so
// the index needs no vocabulary and holds a column only for features of
// its slots: its size follows the cached entries, not the queries served.
// Keys that collide on an ID share a column of summed counts;
// pathfeat.Vector shows why that can add a false candidate but never lose
// a true one, and every candidate is confirmed by a sub-iso test before it
// is used.
//
// The index is immutable once built, and concurrent probes read it
// without locks; the Window Manager derives the next generation with
// applyDelta — into new arrays, never touching these — and swaps it in
// atomically (§6.2).
type queryIndex struct {
	maxLen int
	// Per-slot columns, parallel to each other:
	serials      []int64  // owning serial, ascending
	hashes       []uint64 // owning entry's graph.IsoKey — the exact-lookup key (see exact)
	featureTotal []int32  // distinct feature count: the slot's postings
	slotEntry    []*entry // owning entry
	cols         pathfeat.Columns
}

// buildQueryIndex indexes the given cache contents from scratch: the delta
// that adds them all to the empty index.
func buildQueryIndex(entries []*entry, maxLen int) *queryIndex {
	return (&queryIndex{maxLen: maxLen}).applyDelta(entries, nil)
}

// applyDelta derives the next index generation from this one by inserting
// added entries and dropping removed serials, without the feature work of
// a from-scratch rebuild. An added serial that is already indexed replaces
// its entry (the last of equal added serials wins); removed serials that
// are not indexed are ignored.
//
// It works in two linear passes and never writes to this generation's
// arrays, which concurrent probes may still be reading. A merge walk over
// the surviving slots and the added entries, both in serial order, lays
// out the new per-slot arrays and maps each old slot to its new number (or
// to -1: evicted or replaced). One forward pass then writes new columns,
// sized for every posting of the result: the old postings renumbered
// through that map, merged with the added entries' vectors
// (pathfeat.Columns.Renumber). The result equals buildQueryIndex over the
// resulting contents, array for array, and costs O(postings in the index)
// with no map: a fixed number of allocations whatever the number of
// features.
func (ix *queryIndex) applyDelta(added []*entry, removed []int64) *queryIndex {
	added = slices.Clone(added)
	slices.SortStableFunc(added, func(a, b *entry) int { return cmp.Compare(a.serial, b.serial) })
	kept := 0
	for i, e := range added {
		if i+1 == len(added) || added[i+1].serial != e.serial {
			added[kept] = e
			kept++
		}
	}
	added = added[:kept]
	removed = slices.Clone(removed)
	slices.Sort(removed)

	nOld, n := len(ix.serials), len(ix.serials)+len(added) // n bounds the new slot count
	next := &queryIndex{
		maxLen:       ix.maxLen,
		serials:      make([]int64, 0, n),
		hashes:       make([]uint64, 0, n),
		featureTotal: make([]int32, 0, n),
		slotEntry:    make([]*entry, 0, n),
	}
	remap := make([]int32, nOld)
	rows := make([]pathfeat.Row, len(added))
	postings, feats := 0, len(ix.cols.Feats)
	for i, j, r := 0, 0, 0; i < nOld || j < len(added); {
		if j == len(added) || i < nOld && ix.serials[i] < added[j].serial {
			s := ix.serials[i]
			for r < len(removed) && removed[r] < s {
				r++
			}
			if r < len(removed) && removed[r] == s {
				remap[i] = -1
			} else {
				remap[i] = int32(len(next.serials))
				next.serials = append(next.serials, s)
				next.hashes = append(next.hashes, ix.hashes[i])
				next.featureTotal = append(next.featureTotal, ix.featureTotal[i])
				next.slotEntry = append(next.slotEntry, ix.slotEntry[i])
				postings += int(ix.featureTotal[i])
			}
			i++
			continue
		}
		e := added[j]
		if i < nOld && ix.serials[i] == e.serial {
			remap[i] = -1 // replaced
			i++
		}
		rows[j] = pathfeat.Row{ID: int32(len(next.serials)), Vec: e.vec}
		next.serials = append(next.serials, e.serial)
		next.hashes = append(next.hashes, e.hash)
		next.featureTotal = append(next.featureTotal, int32(len(e.vec)))
		next.slotEntry = append(next.slotEntry, e)
		postings += len(e.vec)
		feats += len(e.vec)
		j++
	}
	next.cols = pathfeat.Columns{
		Feats:  make([]uint64, 0, feats),
		Ends:   make([]uint32, 0, feats),
		IDs:    make([]int32, 0, postings),
		Counts: make([]int32, 0, postings),
	}
	ix.cols.Renumber(&next.cols, remap, rows)
	return next
}

// withSlotEntries returns a generation identical to ix except for its
// slot → entry column. The new entries must carry the same query graphs
// and feature vectors as the ones they replace (only their answer sets
// differ — the dataset-mutation case), so the postings, totals, serials
// and hashes are shared. O(1), no feature work.
func (ix *queryIndex) withSlotEntries(slotEntry []*entry) *queryIndex {
	next := *ix
	next.slotEntry = slotEntry
	return &next
}

// lookup returns the entry indexed under serial, or nil.
func (ix *queryIndex) lookup(serial int64) *entry {
	if slot, ok := slices.BinarySearch(ix.serials, serial); ok {
		return ix.slotEntry[slot]
	}
	return nil
}

// exact is the exact-match lookup (§5.1, special case 1): it returns the
// lowest-serial entry whose key (graph.IsoKey) and vertex and edge counts
// equal the query's and that confirm accepts, or nil. Isomorphic graphs
// have equal keys, so every isomorphic cached query is offered; equal keys
// prove nothing the other way — colour refinement cannot separate some
// non-isomorphic graphs, and 64-bit sums can collide — so confirm must run
// the sub-iso test, which at equal sizes decides isomorphism. One pass over
// a pointer-free column, no scratch, no allocation.
func (ix *queryIndex) exact(key uint64, nV, nE int, confirm func(*entry) bool) *entry {
	for slot, h := range ix.hashes {
		if h != key {
			continue
		}
		e := ix.slotEntry[slot]
		if e.g.NumVertices() == nV && e.g.NumEdges() == nE && confirm(e) {
			return e
		}
	}
	return nil
}

// slotScratch holds the per-slot counters of one in-flight probe. The two
// arrays are sized to the probed index's slot count on use and zeroed with
// a flat clear; pooled by the Cache so the steady-state probe allocates
// nothing.
type slotScratch struct {
	domBy, covers []int32
}

// reset returns the two counter arrays grown to n and zeroed.
func (sc *slotScratch) reset(n int) (domBy, covers []int32) {
	if cap(sc.domBy) < n {
		sc.domBy = make([]int32, n)
		sc.covers = make([]int32, n)
	}
	domBy, covers = sc.domBy[:n], sc.covers[:n]
	clear(domBy)
	clear(covers)
	return domBy, covers
}

// candidatesInto probes the index with the query's feature vector,
// appending into caller-provided buffers (typically pooled, reset to
// [:0]). The probe is a counted merge: for every feature of qv its column
// is walked once, bumping the domination and coverage counters of each
// posting's slot; a final scan over the slots emits, in slot order — which
// is ascending serial order — the entries of the fully-dominated
// sub-candidates and fully-covered super-candidates. With pooled scratch
// the steady-state probe performs zero allocations: no sort, no
// intermediate slices.
func (ix *queryIndex) candidatesInto(qv pathfeat.Vector, sub, super []*entry, sc *slotScratch) ([]*entry, []*entry) {
	nSlots := len(ix.serials)
	if nSlots == 0 || len(qv) == 0 {
		return sub, super
	}
	domBy, covers := sc.reset(nSlots)
	c := &ix.cols
	k := 0
	for _, fc := range qv {
		var ok bool
		if k, ok = c.Find(fc.ID, k); !ok {
			continue // no cached query has the feature
		}
		lo, hi := c.Column(k)
		slots, counts := c.IDs[lo:hi], c.Counts[lo:hi]
		for i, slot := range slots {
			count := counts[i]
			if count >= fc.Count {
				domBy[slot]++
			}
			if count <= fc.Count {
				covers[slot]++
			}
		}
	}
	need := int32(len(qv))
	for slot, ft := range ix.featureTotal {
		if domBy[slot] == need {
			sub = append(sub, ix.slotEntry[slot])
		}
		if ft > 0 && covers[slot] == ft {
			super = append(super, ix.slotEntry[slot])
		}
	}
	return sub, super
}
