package core

import (
	"cmp"
	"maps"
	"slices"

	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

// entry is one cached (or windowed) query: the query graph and its answer
// set, keyed by the query's serial number — the layout of the paper's
// cached-queries store (§6.1).
type entry struct {
	serial int64
	g      *graph.Graph
	answer []int32 // sorted dataset-graph IDs
	// vec memoises the entry's path-feature vector (sorted by feature ID)
	// so index rebuilds never re-enumerate simple paths for an
	// already-cached graph. On the query path the probe's own vector is
	// reused; entries reaching the window through other routes compute it
	// at window time. After the entry is published in an index, vec is
	// only read.
	vec   pathfeat.Vector
	vecOK bool
	// hash is the shard-routing hash of the feature set (see routeHash).
	// It is assigned while the entry is exclusively owned and read-only
	// after publication, so concurrent crediting can locate the owning
	// shard without synchronisation.
	hash   uint64
	hashed bool
}

// featureVector returns the entry's memoised feature vector, computing it
// on first use. Callers must hold the rebuild serialisation (or otherwise
// own the entry exclusively).
func (e *entry) featureVector(maxLen int) pathfeat.Vector {
	if !e.vecOK {
		e.vec = pathfeat.SimplePathVector(e.g, maxLen)
		e.vecOK = true
	}
	return e.vec
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
// The layout is columnar: every cached query occupies a slot, slots are
// assigned in ascending-serial order, and each feature ID owns a column of
// (slot, count) postings sorted by slot. A probe looks up the column of
// each of the query vector's features, bumping per-slot counters in two
// flat []int32 scratch arrays, then scans the slots once — no sort (slot
// order is serial order), and zero allocations when the caller provides
// pooled scratch (see candidatesInto).
//
// Ahead of both probes it answers the exact-match lookup (see exact): each
// slot also records its entry's routing hash, so finding the cached queries
// that can be isomorphic to a new one is a scan of one []uint64 column in
// the query's own shard.
//
// Feature IDs are 64-bit hashes of the feature keys (pathfeat.Vector), so
// the index needs no vocabulary and holds a column only for features of
// slots in the current generation: its size follows the cached entries,
// not the queries served. Keys that collide on an ID share a column of
// summed counts; pathfeat.Vector shows why that can add a false candidate
// but never lose a true one, and every candidate is confirmed by a sub-iso
// test before it is used.
//
// The index is immutable once built; the Window Manager builds the next
// one — incrementally via applyDelta on the steady path — and swaps it in
// atomically (§6.2). Columns are never mutated after publication:
// applyDelta rewrites only the columns of added entries' features and
// shares every other column with the previous generation. Evicted entries
// leave their slots behind as tombstones (featureTotal -1) and take with
// them the columns no live slot uses any more; the index compacts —
// renumbering slots and dropping dead postings — once dead slots outnumber
// live ones or an out-of-order insert would break the
// slot-order-is-serial-order invariant.
type queryIndex struct {
	maxLen int
	// cols is the column directory, keyed by feature ID: exactly the
	// features of the live slots.
	cols map[uint64]column
	// Per-slot columns, parallel to each other:
	featureTotal []int32  // distinct feature count; -1 marks a dead slot
	serials      []int64  // owning serial, ascending across slots
	hashes       []uint64 // owning entry's routing hash — the exact-lookup key (see exact)
	slotEntry    []*entry // owning entry; nil for dead slots
	// Serial-keyed views over the live slots:
	entries map[int64]*entry
	slotOf  map[int64]uint32
	live    int
}

// column lists the (slot, count) postings of one feature in ascending slot
// order. Dead slots' postings linger until compaction and are masked at
// scan time; live counts the others, and a column leaves the directory
// when it reaches zero.
type column struct {
	postings []slotCount
	live     int32
}

type slotCount struct {
	slot  uint32
	count int32
}

// buildQueryIndex indexes the given cache contents from scratch. Entries
// with memoised feature vectors reuse them; the rest are enumerated here.
func buildQueryIndex(entries map[int64]*entry, maxLen int) *queryIndex {
	ix := &queryIndex{
		maxLen:       maxLen,
		cols:         make(map[uint64]column),
		featureTotal: make([]int32, 0, len(entries)),
		serials:      make([]int64, 0, len(entries)),
		hashes:       make([]uint64, 0, len(entries)),
		slotEntry:    make([]*entry, 0, len(entries)),
		entries:      entries,
		slotOf:       make(map[int64]uint32, len(entries)),
		live:         len(entries),
	}
	for s := range entries {
		ix.serials = append(ix.serials, s)
	}
	slices.Sort(ix.serials)
	for slot, s := range ix.serials {
		e := entries[s]
		vec := e.featureVector(maxLen)
		ix.featureTotal = append(ix.featureTotal, int32(len(vec)))
		ix.hashes = append(ix.hashes, e.routeHash(maxLen))
		ix.slotEntry = append(ix.slotEntry, e)
		ix.slotOf[s] = uint32(slot)
		for _, fc := range vec {
			col := ix.cols[fc.ID]
			col.postings = append(col.postings, slotCount{slot: uint32(slot), count: fc.Count})
			col.live++
			ix.cols[fc.ID] = col
		}
	}
	return ix
}

// applyDelta derives the next index generation from this one by inserting
// added entries and dropping removed serials, without the feature work of
// a from-scratch rebuild. The per-slot arrays and the column directory are
// copied flat; of the postings, only the columns of added entries'
// features are rewritten (copied plus one appended posting each), every
// other column is shared with the previous generation (safe: columns are
// immutable once published). Added entries claim fresh slots at the top.
// Removed serials become tombstones: their postings stay in the shared
// columns and are masked by featureTotal[slot] == -1 at scan time, except
// that a column left without a live posting is dropped from the directory.
//
// Two cases fall back to a from-scratch compaction over the resulting
// contents: an added serial at or below the current top slot's serial
// (possible when concurrent callers window out of order — slots must stay
// serial-ordered), and tombstones outnumbering live slots (bounding the
// masked-scan overhead at 2×). Either way the result answers probes
// identically to buildQueryIndex(next contents, maxLen).
func (ix *queryIndex) applyDelta(added []*entry, removed []int64) *queryIndex {
	nextEntries := make(map[int64]*entry, len(ix.entries)+len(added))
	for s, e := range ix.entries {
		nextEntries[s] = e
	}
	dropped := 0
	for _, s := range removed {
		if _, ok := nextEntries[s]; ok {
			delete(nextEntries, s)
			dropped++
		}
	}
	added = slices.Clone(added)
	slices.SortFunc(added, func(a, b *entry) int { return cmp.Compare(a.serial, b.serial) })
	for _, e := range added {
		nextEntries[e.serial] = e
	}

	outOfOrder := len(added) > 0 && len(ix.serials) > 0 &&
		added[0].serial <= ix.serials[len(ix.serials)-1]
	dead := len(ix.serials) - ix.live + dropped
	if outOfOrder || dead > len(nextEntries) {
		return buildQueryIndex(nextEntries, ix.maxLen)
	}

	nSlots := len(ix.serials)
	next := &queryIndex{
		maxLen:       ix.maxLen,
		cols:         maps.Clone(ix.cols), // columns shared wholesale; touched ones re-owned below
		featureTotal: append(make([]int32, 0, nSlots+len(added)), ix.featureTotal...),
		serials:      append(make([]int64, 0, nSlots+len(added)), ix.serials...),
		hashes:       append(make([]uint64, 0, nSlots+len(added)), ix.hashes...),
		slotEntry:    append(make([]*entry, 0, nSlots+len(added)), ix.slotEntry...),
		entries:      nextEntries,
		slotOf:       make(map[int64]uint32, len(nextEntries)),
		live:         len(nextEntries),
	}
	for s, slot := range ix.slotOf {
		if _, ok := nextEntries[s]; ok {
			next.slotOf[s] = slot
		}
	}
	for _, s := range removed {
		slot, ok := ix.slotOf[s]
		if !ok || next.featureTotal[slot] < 0 {
			continue // not indexed, or listed twice
		}
		next.featureTotal[slot] = -1
		next.slotEntry[slot] = nil
		for _, fc := range ix.entries[s].vec {
			col := next.cols[fc.ID]
			if col.live--; col.live == 0 {
				delete(next.cols, fc.ID)
			} else {
				next.cols[fc.ID] = col
			}
		}
	}

	// Pre-count postings per touched feature so each re-owned column is
	// copied exactly once, with room for every posting this window adds —
	// window batches share features, so capacity len+1 would recopy a
	// column once per added entry carrying it.
	addPer := make(map[uint64]int)
	for _, e := range added {
		for _, fc := range e.featureVector(ix.maxLen) {
			addPer[fc.ID]++
		}
	}
	owned := make(map[uint64]bool, len(addPer)) // columns this generation re-owns
	for i, e := range added {
		slot := uint32(nSlots + i)
		vec := e.featureVector(ix.maxLen)
		next.featureTotal = append(next.featureTotal, int32(len(vec)))
		next.serials = append(next.serials, e.serial)
		next.hashes = append(next.hashes, e.routeHash(ix.maxLen))
		next.slotEntry = append(next.slotEntry, e)
		next.slotOf[e.serial] = slot
		for _, fc := range vec {
			col := next.cols[fc.ID]
			if !owned[fc.ID] {
				col.postings = append(make([]slotCount, 0, len(col.postings)+addPer[fc.ID]), col.postings...)
				owned[fc.ID] = true
			}
			col.postings = append(col.postings, slotCount{slot: slot, count: fc.Count})
			col.live++
			next.cols[fc.ID] = col
		}
	}
	return next
}

// withReplacedEntries returns a generation identical to ix except that
// every serial present in repl points at its replacement entry. The
// replacements must carry the same query graph and feature vector as the
// originals (only their answer sets differ — the dataset-mutation case),
// so the feature columns, totals, serials, hashes and slot assignments are
// shared wholesale; only the entry pointer surfaces (slotEntry, entries)
// are copied. O(slots), no feature work.
func (ix *queryIndex) withReplacedEntries(repl map[int64]*entry) *queryIndex {
	next := &queryIndex{
		maxLen:       ix.maxLen,
		cols:         ix.cols,
		featureTotal: ix.featureTotal,
		serials:      ix.serials,
		hashes:       ix.hashes,
		slotEntry:    make([]*entry, len(ix.slotEntry)),
		entries:      make(map[int64]*entry, len(ix.entries)),
		slotOf:       ix.slotOf,
		live:         ix.live,
	}
	copy(next.slotEntry, ix.slotEntry)
	for s, e := range ix.entries {
		if ne, ok := repl[s]; ok {
			e = ne
		}
		next.entries[s] = e
	}
	for slot, e := range next.slotEntry {
		if e == nil {
			continue
		}
		if ne, ok := repl[e.serial]; ok {
			next.slotEntry[slot] = ne
		}
	}
	return next
}

// size returns the number of indexed queries.
func (ix *queryIndex) size() int { return ix.live }

// liveSerials returns the indexed serials in ascending order.
func (ix *queryIndex) liveSerials() []int64 {
	out := make([]int64, 0, ix.live)
	for slot, s := range ix.serials {
		if ix.featureTotal[slot] >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// exact is the exact-match lookup (§5.1, special case 1): it returns the
// lowest-serial live entry whose routing hash and vertex and edge counts
// equal the query's and that confirm accepts, or nil. Isomorphic graphs
// have equal feature vectors, hence equal hashes (and land in this shard's
// index), so every isomorphic cached query is offered; equal hashes prove
// nothing the other way — unrelated vectors can share a hash, and
// non-isomorphic graphs a vector — so confirm must run the sub-iso test,
// which at equal sizes decides isomorphism. One pass over a pointer-free
// column, no scratch, no allocation.
func (ix *queryIndex) exact(hash uint64, nV, nE int, confirm func(*entry) bool) *entry {
	for slot, h := range ix.hashes {
		if h != hash || ix.featureTotal[slot] < 0 {
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
// is ascending serial order — the fully-dominated sub-candidates and
// fully-covered super-candidates. With pooled scratch the steady-state
// probe performs zero allocations: no sort, no intermediate slices.
func (ix *queryIndex) candidatesInto(qv pathfeat.Vector, sub, super []int64, sc *slotScratch) ([]int64, []int64) {
	if ix.live == 0 || len(qv) == 0 {
		return sub, super
	}
	nSlots := len(ix.serials)
	domBy, covers := sc.reset(nSlots)
	for _, fc := range qv {
		for _, p := range ix.cols[fc.ID].postings { // no column: no cached query has the feature
			if p.count >= fc.Count {
				domBy[p.slot]++
			}
			if p.count <= fc.Count {
				covers[p.slot]++
			}
		}
	}
	need := int32(len(qv))
	for slot := 0; slot < nSlots; slot++ {
		ft := ix.featureTotal[slot]
		if ft < 0 {
			continue // tombstone
		}
		if domBy[slot] == need {
			sub = append(sub, ix.serials[slot])
		}
		if ft > 0 && covers[slot] == ft {
			super = append(super, ix.serials[slot])
		}
	}
	return sub, super
}
