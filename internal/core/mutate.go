package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// This file is the dataset-mutation path: ApplyMutation advances the
// dataset one epoch and repairs every cached answer set so the cache
// remains *exactly* equivalent to a cold cache over the new dataset.
//
// Soundness, per operation:
//
//   - Additions can only extend subgraph answer sets (and, symmetrically,
//     supergraph answer sets): answer'(q) = answer(q) ∪ {new graphs
//     matching q}. Every cached entry whose feature vector is
//     compatible with the added graph's vector — including entries with
//     empty vectors, which the regular index probe would skip — gets one
//     method verification per compatible graph, and matches are appended.
//     The feature filter has no false negatives (the same domination
//     property GCindex probing relies on), so no extension is missed.
//
//   - Removals are exact maintenance, no verification needed:
//     answer'(q) = answer(q) \ removed, one merge per cached answer set.
//     An answer that becomes empty stays cached and remains a sound
//     empty-answer shortcut for the new dataset.
//
//   - Edits re-verify a bounded set: entries whose feature vector is
//     compatible with the *new* graph content get one verification
//     (membership may appear or disappear); entries that mention the
//     edited ID but are no longer feature-compatible drop it without
//     verification — incompatibility alone proves non-membership.
//
// Atomicity: a mutation runs with the cache to itself. Arriving queries
// park on gateMu, in-flight queries (including their still-running
// Method M filter goroutines) drain via the inflight counter, and the
// window barrier (Flush) waits for every queued window pass before the
// dataset generation, the method's filtering structures, the cached
// entries and the pending window entries advance together. A query
// therefore never observes the new dataset through Method M while pruning
// against pre-mutation cached answers (or vice versa) — the mixed-state
// race that would otherwise drop newly-added true answers.

// ErrStaticMethod is returned by ApplyMutation when the wrapped method
// does not implement method.DynamicMethod: applying a mutation without
// maintaining the method's filter index could silently lose answers.
var ErrStaticMethod = errors.New("core: method does not support dataset mutations")

// MutationResult reports what one applied mutation did to the cache.
type MutationResult struct {
	// Applied is false when the mutation was recognised as an
	// already-applied duplicate by its sequence number and skipped.
	Applied bool
	// Epoch is the dataset epoch after the mutation.
	Epoch int64
	// Seq is the highest applied mutation sequence number.
	Seq int64
	// AddedIDs are the dataset IDs assigned to OpAdd graphs.
	AddedIDs []int32
	// RemovedIDs are the IDs OpRemove actually tombstoned.
	RemovedIDs []int32
	// EntriesTouched counts cached entries examined because their feature
	// vector or answer set could be affected.
	EntriesTouched int
	// Reverified counts method verifications spent repairing answers.
	Reverified int
	// Extended counts cached entries whose answer set grew.
	Extended int
	// Invalidated counts cached entries whose answer set shrank.
	Invalidated int
	// WindowPatched counts pending (not yet admitted) window entries
	// whose answers were repaired in place.
	WindowPatched int
	// Duration is the wall time spent applying, gate wait included.
	Duration time.Duration
}

// enterQuery registers a query with the mutation gate. The fast path is
// one atomic increment and one atomic load; only while a mutation is in
// progress do arriving queries park on gateMu.
func (c *Cache) enterQuery() {
	for {
		c.inflight.Add(1)
		if !c.mutating.Load() {
			return
		}
		c.inflight.Add(-1)
		c.gateMu.Lock() // parks until the mutation releases the gate
		//lint:ignore SA2001 the critical section is the wait itself
		c.gateMu.Unlock()
	}
}

// retainQuery adds an inflight reference on behalf of a goroutine spawned
// inside an already-gated section (the Method M filter goroutine). It
// must not re-check the gate — the spawning query already holds a slot.
func (c *Cache) retainQuery() { c.inflight.Add(1) }

// exitQuery drops one inflight reference.
func (c *Cache) exitQuery() { c.inflight.Add(-1) }

// beginExclusive blocks new queries and drains in-flight ones: on return
// the caller is the only goroutine touching the cache, the method and the
// dataset. A window pass runs inside the gate slot of the query that
// drains it, so none is running or queued either. Callers hold mutApplyMu,
// which keeps WriteSnapshot out. Pair with endExclusive.
func (c *Cache) beginExclusive() {
	c.gateMu.Lock()
	c.mutating.Store(true)
	for c.inflight.Load() != 0 {
		time.Sleep(20 * time.Microsecond)
	}
}

func (c *Cache) endExclusive() {
	c.mutating.Store(false)
	c.gateMu.Unlock()
}

// DatasetEpoch returns the dataset's current mutation epoch.
func (c *Cache) DatasetEpoch() int64 { return c.m.Dataset().Epoch() }

// LastMutationSeq returns the highest mutation sequence number applied
// (via ApplyMutation or restored from a snapshot).
func (c *Cache) LastMutationSeq() int64 { return c.lastSeq.Load() }

// ValidateMutation checks mut against the current dataset without
// applying anything: op well-formed, targets live, graphs present. A nil
// error means ApplyMutation would accept it right now (barring a
// concurrent conflicting mutation). Servers call it before journaling so
// the WAL only ever records appliable mutations.
func (c *Cache) ValidateMutation(mut dataset.Mutation) error {
	if _, ok := c.m.(method.DynamicMethod); !ok {
		return fmt.Errorf("%w: %s", ErrStaticMethod, c.m.Name())
	}
	ds := c.m.Dataset()
	switch mut.Op {
	case dataset.OpAdd:
		if len(mut.Graphs) == 0 {
			return errors.New("core: add mutation with no graphs")
		}
		for i, g := range mut.Graphs {
			if g == nil {
				return fmt.Errorf("core: add mutation with nil graph at %d", i)
			}
		}
	case dataset.OpRemove:
		if len(mut.IDs) == 0 {
			return errors.New("core: remove mutation with no ids")
		}
		live := 0
		for _, id := range mut.IDs {
			if ds.Alive(id) {
				live++
			}
		}
		if live == 0 {
			return fmt.Errorf("core: remove mutation: none of %v is a live graph id", mut.IDs)
		}
	case dataset.OpEdit:
		if len(mut.IDs) != 1 || len(mut.Graphs) != 1 || mut.Graphs[0] == nil {
			return errors.New("core: edit mutation needs exactly one target id and one replacement graph")
		}
		if !ds.Alive(mut.IDs[0]) {
			return fmt.Errorf("core: edit mutation: no live graph with id %d", mut.IDs[0])
		}
		if mut.Graphs[0].NumVertices() != ds.Graph(mut.IDs[0]).NumVertices() {
			return fmt.Errorf("core: edit mutation: replacement has %d vertices, graph %d has %d (edits change edges, not vertices)",
				mut.Graphs[0].NumVertices(), mut.IDs[0], ds.Graph(mut.IDs[0]).NumVertices())
		}
	default:
		return fmt.Errorf("core: unknown mutation op %d", mut.Op)
	}
	return nil
}

// ApplyMutation applies one dataset mutation atomically with respect to
// queries, repairs every cached and pending answer set, and maintains
// the method's filtering structures. After it returns, Query answers are
// exactly those of a cold cache over the mutated dataset.
//
// Mutations with a non-zero Seq are idempotent: a Seq at or below the
// highest applied one returns Applied == false without touching
// anything, so replaying a journal or re-fanning a fleet mutation is
// safe.
func (c *Cache) ApplyMutation(mut dataset.Mutation) (MutationResult, error) {
	c.mutApplyMu.Lock()
	defer c.mutApplyMu.Unlock()

	ds := c.m.Dataset()
	res := MutationResult{Seq: c.lastSeq.Load(), Epoch: ds.Epoch()}
	if mut.Seq != 0 && mut.Seq <= res.Seq {
		return res, nil // duplicate of an already-applied mutation
	}
	if err := c.ValidateMutation(mut); err != nil {
		return res, err
	}
	dm := c.m.(method.DynamicMethod) // checked by ValidateMutation

	start := time.Now()
	c.beginExclusive()
	defer c.endExclusive()

	switch mut.Op {
	case dataset.OpAdd:
		res.AddedIDs = ds.AddGraphs(mut.Graphs)
		added := make([]*graph.Graph, len(res.AddedIDs))
		for i, id := range res.AddedIDs {
			added[i] = ds.Graph(id)
		}
		dm.ApplyDatasetMutation(added, nil, nil)
		for _, g := range added {
			c.costs.set(g)
		}
		c.extendForAdds(added, &res)
	case dataset.OpRemove:
		res.RemovedIDs = ds.RemoveGraphs(mut.IDs)
		dm.ApplyDatasetMutation(nil, nil, res.RemovedIDs)
		c.dropRemovedAnswers(res.RemovedIDs, &res)
	case dataset.OpEdit:
		ng, err := ds.Replace(mut.IDs[0], mut.Graphs[0])
		if err != nil {
			return res, err
		}
		dm.ApplyDatasetMutation(nil, []*graph.Graph{ng}, nil)
		c.costs.set(ng)
		c.reverifyForEdit(ng, &res)
	}

	if mut.Seq > c.lastSeq.Load() {
		c.lastSeq.Store(mut.Seq)
	}
	res.Applied = true
	res.Epoch = ds.Epoch()
	res.Seq = c.lastSeq.Load()
	res.Duration = time.Since(start)

	c.totMu.Lock()
	c.tot.Mutations++
	c.totMu.Unlock()
	if obs := c.observer(); obs != nil {
		obs.ObserveMutation(MutationObservation{
			Op:             mut.Op.String(),
			Epoch:          res.Epoch,
			DurationNS:     res.Duration.Nanoseconds(),
			EntriesTouched: res.EntriesTouched,
			Reverified:     res.Reverified,
			Extended:       res.Extended,
			Invalidated:    res.Invalidated,
			WindowPatched:  res.WindowPatched,
		})
	}
	return res, nil
}

// AddGraphs appends gs to the dataset (renumbering them, as
// dataset.New does) and extends matching cached answers.
func (c *Cache) AddGraphs(gs []*graph.Graph) (MutationResult, error) {
	return c.ApplyMutation(dataset.Mutation{Op: dataset.OpAdd, Graphs: gs})
}

// RemoveGraphs tombstones ids and invalidates them out of cached answers.
func (c *Cache) RemoveGraphs(ids []int32) (MutationResult, error) {
	return c.ApplyMutation(dataset.Mutation{Op: dataset.OpRemove, IDs: ids})
}

// EditGraphEdges applies a batch of edge edits to dataset graph id and
// re-verifies the cached entries the edit could affect.
func (c *Cache) EditGraphEdges(id int32, edits []dataset.EdgeEdit) (MutationResult, error) {
	old := c.m.Dataset().Graph(id)
	if old == nil {
		return MutationResult{}, fmt.Errorf("core: edit: no live graph with id %d", id)
	}
	ng, err := dataset.ApplyEdgeEdits(old, edits)
	if err != nil {
		return MutationResult{}, err
	}
	return c.ApplyMutation(dataset.Mutation{Op: dataset.OpEdit, IDs: []int32{id}, Graphs: []*graph.Graph{ng}})
}

// withAnswer returns a copy of e carrying answer instead of its current
// answer set. Published entries are never mutated in place — the old
// *entry stays reachable from superseded index generations (in-flight
// runs, snapshot writers) — so mutations swap in replacements. The copy
// takes e's hit counters with it, and none are lost: a mutation has the
// cache to itself, so no run is left to credit the superseded entry.
func (e *entry) withAnswer(answer []int32) *entry {
	ne := *e
	ne.answer = answer
	return &ne
}

// vecDominates reports whether sub is feature-dominated by sup: every
// (feature, count) of sub appears in sup with at least that count. Both
// vectors are sorted by feature ID; an empty sub is dominated by
// anything.
func vecDominates(sup, sub pathfeat.Vector) bool {
	j := 0
	for _, fc := range sub {
		for j < len(sup) && sup[j].ID < fc.ID {
			j++
		}
		if j >= len(sup) || sup[j].ID != fc.ID || sup[j].Count < fc.Count {
			return false
		}
	}
	return true
}

// answerCompatible reports whether dataset graph content with vector gv
// could belong to the answer set of a cached entry with vector ev, by
// feature domination alone: in subgraph mode the entry's query must
// embed in the graph (ev ⊆ gv), in supergraph mode the graph must embed
// in the query (gv ⊆ ev).
func (c *Cache) answerCompatible(gv, ev pathfeat.Vector) bool {
	if c.m.Mode() == method.ModeSupergraph {
		return vecDominates(ev, gv)
	}
	return vecDominates(gv, ev)
}

// repairAnswers applies fix to every cached and pending entry. fix returns
// an entry's repaired answer set and whether it changed. Cached entries
// that changed are replaced by copies carrying the new set, published as
// one index generation; pending window entries are patched in place. It
// returns how many cached entries changed.
func (c *Cache) repairAnswers(res *MutationResult, fix func(e *entry) ([]int32, bool)) (changed int) {
	ix := c.index.Load()
	var repl []*entry
	for slot, e := range ix.slotEntry {
		na, ok := fix(e)
		if !ok {
			continue
		}
		if repl == nil {
			repl = slices.Clone(ix.slotEntry)
		}
		repl[slot] = e.withAnswer(na)
		changed++
	}
	if repl != nil {
		c.index.Store(ix.withSlotEntries(repl))
	}
	for _, e := range c.window {
		if na, ok := fix(e); ok {
			e.answer = na
			res.WindowPatched++
		}
	}
	return changed
}

// extendForAdds appends newly added graphs to every cached and pending
// answer set they belong to. It scans entries directly (not via the
// index probe) because entries with empty feature vectors — legitimate
// cached queries — never surface from a probe, yet an added graph can
// extend their answers too.
func (c *Cache) extendForAdds(added []*graph.Graph, res *MutationResult) {
	gvecs := make([]pathfeat.Vector, len(added))
	for i, g := range added {
		gvecs[i] = pathfeat.SimplePathVector(g, maxPathLen)
	}
	res.Extended += c.repairAnswers(res, func(e *entry) ([]int32, bool) {
		var newIDs []int32
		touched := false
		for i, g := range added {
			if !c.answerCompatible(gvecs[i], e.vec) {
				continue
			}
			if !touched {
				touched = true
				res.EntriesTouched++
			}
			res.Reverified++
			if c.m.Verify(e.g, g.ID()) {
				newIDs = append(newIDs, g.ID()) // ascending: added IDs ascend
			}
		}
		if len(newIDs) == 0 {
			return nil, false
		}
		return unionSorted(e.answer, newIDs), true
	})
}

// dropRemovedAnswers subtracts removed IDs from every cached and pending
// answer set that mentions them.
func (c *Cache) dropRemovedAnswers(removed []int32, res *MutationResult) {
	sorted := slices.Clone(removed)
	slices.Sort(sorted)
	n := c.repairAnswers(res, func(e *entry) ([]int32, bool) {
		if intersectCountSorted(e.answer, sorted) == 0 {
			return nil, false
		}
		return subtractSorted(e.answer, sorted), true
	})
	res.EntriesTouched += n
	res.Invalidated += n
}

// reverifyForEdit repairs answer membership of the edited graph: entries
// feature-compatible with the new content get one verification, entries
// holding the ID without compatibility drop it verification-free.
func (c *Cache) reverifyForEdit(ng *graph.Graph, res *MutationResult) {
	id := ng.ID()
	gv := pathfeat.SimplePathVector(ng, maxPathLen)
	c.repairAnswers(res, func(e *entry) ([]int32, bool) {
		has := containsID(e.answer, id)
		compat := c.answerCompatible(gv, e.vec)
		if !compat && !has {
			return nil, false
		}
		res.EntriesTouched++
		want := false
		if compat {
			res.Reverified++
			want = c.m.Verify(e.g, id)
		}
		if want == has {
			return nil, false
		}
		if want {
			res.Extended++
			return unionSorted(e.answer, []int32{id}), true
		}
		res.Invalidated++
		return subtractSorted(e.answer, []int32{id}), true
	})
}

// containsID reports whether sorted answer set a contains id.
func containsID(a []int32, id int32) bool {
	_, ok := slices.BinarySearch(a, id)
	return ok
}
