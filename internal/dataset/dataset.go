// Package dataset wraps a collection of dataset graphs with dense IDs,
// lookup helpers and shape statistics. Every query-processing method and
// the cache operate over a Dataset.
//
// A Dataset starts as the paper's immutable, densely numbered
// collection, but it can evolve: AddGraphs, RemoveGraphs and Replace
// advance it through immutable *generations* swapped behind an atomic
// pointer, each stamped with a monotonically increasing epoch. Readers
// (Graph, Len, Alive, …) are lock-free and always observe one
// consistent generation. Graph IDs are stable for the life of the
// dataset — removals leave nil tombstones and additions append fresh
// IDs — so cached answer sets, which reference graphs by ID, stay
// meaningful across mutations.
package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"graphcache/internal/graph"
)

// Dataset is a densely numbered collection of graphs: graph i has ID i.
// IDs are never reused; a removed graph's slot holds nil forever.
type Dataset struct {
	mu  sync.Mutex // serialises mutators; readers never take it
	gen atomic.Pointer[generation]

	// base retains the constructed generation, for snapshot compatibility
	// checks and restores: a snapshot records the base fingerprint it was
	// built over plus the delta to re-apply, and Restore rebuilds from
	// base whatever the current generation looks like (a removed graph's
	// object survives here even though its live slot is a tombstone).
	base    *generation
	baseLen int
}

// generation is one immutable dataset state. A mutation builds a new
// generation (sharing unchanged *graph.Graph values) and publishes it
// with a single atomic store.
type generation struct {
	graphs []*graph.Graph     // index = graph ID; nil = removed (tombstone)
	live   int                // number of non-nil slots
	epoch  int64              // 0 for the constructed state, +1 per mutation
	edited map[int32]struct{} // base-range IDs whose graph was replaced

	// fp is the order-sensitive content hash of the live graphs, computed
	// on first use (see fingerprint): only snapshots read it, so a
	// mutation does not pay for hashing every live graph.
	fpOnce sync.Once
	fp     uint64
}

// fingerprint returns the generation's content hash, computing it once.
// A generation is immutable once published, so the memo never goes stale.
func (g *generation) fingerprint() uint64 {
	g.fpOnce.Do(func() { g.fp = fingerprint(g.graphs, g.live) })
	return g.fp
}

// New builds a Dataset from graphs, renumbering their IDs to 0..n-1.
//
// The slice is copied, so the caller may append to or reslice its own
// slice afterwards without corrupting the dataset. The graphs
// themselves are shared, and renumbering mutates them in place via
// SetID — a graph must not belong to two datasets at once, and any ID
// the caller assigned before construction is overwritten.
func New(graphs []*graph.Graph) *Dataset {
	gs := make([]*graph.Graph, len(graphs))
	copy(gs, graphs)
	for i, g := range gs {
		g.SetID(int32(i))
	}
	d := &Dataset{}
	g0 := &generation{graphs: gs, live: len(gs), epoch: 0}
	d.gen.Store(g0)
	d.base = g0 // mutations clone before writing, so base stays pristine
	d.baseLen = len(gs)
	return d
}

// Len returns the size of the ID space: tombstones included, so valid
// graph IDs are always 0..Len()-1. Use Live for the number of graphs
// actually present.
func (d *Dataset) Len() int { return len(d.gen.Load().graphs) }

// Live returns the number of live (non-removed) graphs.
func (d *Dataset) Live() int { return d.gen.Load().live }

// Epoch returns the mutation epoch: 0 for the constructed state,
// incremented by one per applied mutation.
func (d *Dataset) Epoch() int64 { return d.gen.Load().epoch }

// Mutated reports whether any mutation has been applied. When false,
// every ID in 0..Len()-1 is live and the dataset behaves exactly like
// the paper's immutable collection.
func (d *Dataset) Mutated() bool { return d.gen.Load().epoch != 0 }

// Graph returns the graph with the given ID, or nil if it has been
// removed. IDs outside 0..Len()-1 panic, as before.
func (d *Dataset) Graph(id int32) *graph.Graph { return d.gen.Load().graphs[id] }

// Alive reports whether id names a live graph.
func (d *Dataset) Alive(id int32) bool {
	gs := d.gen.Load().graphs
	return id >= 0 && int(id) < len(gs) && gs[id] != nil
}

// Graphs returns the current generation's backing slice, indexed by
// graph ID. Callers must not modify it, and — once the dataset has been
// mutated — must skip nil slots (tombstones of removed graphs).
func (d *Dataset) Graphs() []*graph.Graph { return d.gen.Load().graphs }

// AllIDs returns a fresh slice of all live graph IDs in ascending
// order — the candidate set of an SI method that filters nothing.
func (d *Dataset) AllIDs() []int32 {
	g := d.gen.Load()
	ids := make([]int32, 0, g.live)
	for i, gr := range g.graphs {
		if gr != nil {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// FilterLive returns ids with tombstoned graph IDs removed. When the
// dataset has never been mutated it returns ids unchanged (no copy);
// otherwise the result is a fresh slice and ids is left untouched.
func (d *Dataset) FilterLive(ids []int32) []int32 {
	g := d.gen.Load()
	if g.epoch == 0 {
		return ids
	}
	dead := 0
	for _, id := range ids {
		if id < 0 || int(id) >= len(g.graphs) || g.graphs[id] == nil {
			dead++
		}
	}
	if dead == 0 {
		return ids
	}
	out := make([]int32, 0, len(ids)-dead)
	for _, id := range ids {
		if id >= 0 && int(id) < len(g.graphs) && g.graphs[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// Fingerprint returns an order-sensitive content hash of the current
// generation: live count plus, for every live ID, the graph's ID,
// labels and edge set. Two datasets with equal fingerprints hold
// structurally identical graphs under identical IDs (modulo hash
// collisions), which is what snapshot compatibility needs.
func (d *Dataset) Fingerprint() uint64 { return d.gen.Load().fingerprint() }

// BaseLen and BaseFingerprint describe the generation the dataset was
// constructed with, before any mutation. Snapshots record them so a
// snapshot carrying a mutation delta can check it is being re-applied
// over the same starting dataset.
func (d *Dataset) BaseLen() int { return d.baseLen }

// BaseFingerprint returns the content hash of the constructed state.
func (d *Dataset) BaseFingerprint() uint64 { return d.base.fingerprint() }

// AddGraphs appends gs as fresh IDs Len()..Len()+len(gs)-1 (renumbering
// them in place, as New does) and returns the assigned IDs. The epoch
// advances by one for the whole batch.
func (d *Dataset) AddGraphs(gs []*graph.Graph) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.gen.Load()
	next := cur.clone()
	ids := make([]int32, len(gs))
	for i, g := range gs {
		id := int32(len(next.graphs))
		g.SetID(id)
		next.graphs = append(next.graphs, g)
		next.live++
		ids[i] = id
	}
	d.publish(next)
	return ids
}

// RemoveGraphs tombstones the given IDs and returns the IDs that were
// actually live (already-removed or out-of-range IDs are ignored). The
// epoch advances by one if anything was removed.
func (d *Dataset) RemoveGraphs(ids []int32) []int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.gen.Load()
	next := cur.clone()
	removed := make([]int32, 0, len(ids))
	for _, id := range ids {
		if id < 0 || int(id) >= len(next.graphs) || next.graphs[id] == nil {
			continue
		}
		next.graphs[id] = nil
		next.live--
		removed = append(removed, id)
	}
	if len(removed) == 0 {
		return removed
	}
	d.publish(next)
	return removed
}

// Replace swaps the live graph id for g (renumbered to id in place) and
// returns the installed graph. It is the primitive behind edge edits: a
// graph is immutable, so an edit builds a replacement and swaps it.
func (d *Dataset) Replace(id int32, g *graph.Graph) (*graph.Graph, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.gen.Load()
	if id < 0 || int(id) >= len(cur.graphs) || cur.graphs[id] == nil {
		return nil, fmt.Errorf("dataset: replace: no live graph with id %d", id)
	}
	g.SetID(id)
	next := cur.clone()
	next.graphs[id] = g
	if int(id) < d.baseLen {
		if next.edited == nil {
			next.edited = make(map[int32]struct{})
		}
		next.edited[id] = struct{}{}
	}
	d.publish(next)
	return g, nil
}

// EdgeEdit is one edge insertion or deletion in an EditEdges batch.
type EdgeEdit struct {
	U, V int32
	Del  bool // true deletes the edge, false inserts it
}

// EditEdges applies a batch of edge edits to the live graph id: it
// rebuilds the graph with the requested edges inserted/deleted and
// swaps it in under a single epoch advance. Vertex labels are
// preserved; edits referencing out-of-range vertices, inserting
// self-loops, deleting absent edges or re-inserting present ones fail
// without mutating anything.
func (d *Dataset) EditEdges(id int32, edits []EdgeEdit) (*graph.Graph, error) {
	old := d.Graph(id) // panics out of range, nil if removed
	if old == nil {
		return nil, fmt.Errorf("dataset: edit: no live graph with id %d", id)
	}
	ng, err := ApplyEdgeEdits(old, edits)
	if err != nil {
		return nil, err
	}
	return d.Replace(id, ng)
}

// ApplyEdgeEdits builds the graph that results from applying edits to
// g, without touching any dataset. The result carries g's ID.
func ApplyEdgeEdits(g *graph.Graph, edits []EdgeEdit) (*graph.Graph, error) {
	n := g.NumVertices()
	type edge struct{ u, v int32 }
	norm := func(u, v int32) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	edges := make(map[edge]struct{}, g.NumEdges())
	g.Edges(func(u, v int32) {
		edges[norm(u, v)] = struct{}{}
	})
	for _, e := range edits {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("dataset: edit: vertex out of range in edge (%d,%d)", e.U, e.V)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("dataset: edit: self-loop (%d,%d)", e.U, e.V)
		}
		k := norm(e.U, e.V)
		if e.Del {
			if _, ok := edges[k]; !ok {
				return nil, fmt.Errorf("dataset: edit: edge (%d,%d) not present", e.U, e.V)
			}
			delete(edges, k)
		} else {
			if _, ok := edges[k]; ok {
				return nil, fmt.Errorf("dataset: edit: edge (%d,%d) already present", e.U, e.V)
			}
			edges[k] = struct{}{}
		}
	}
	b := graph.NewBuilder()
	b.SetID(g.ID())
	for i := 0; i < n; i++ {
		b.AddVertex(g.Label(int32(i)))
	}
	for e := range edges {
		b.AddEdge(e.u, e.v)
	}
	return b.Build()
}

// Delta returns what separates the current generation from the base
// one: the sorted IDs removed since construction and the graphs added
// or replaced since construction (each carrying its dataset ID), in
// ascending ID order. Snapshots persist the delta so a restart can
// rebuild this exact generation from the base dataset file.
func (d *Dataset) Delta() (removed []int32, changed []*graph.Graph) {
	// Compare against the base by position: IDs < baseLen whose slot is
	// nil were removed; IDs ≥ baseLen are additions; IDs < baseLen whose
	// content hash differs from the base were replaced. To avoid
	// retaining base graphs we track per-ID content hashes instead.
	g := d.gen.Load()
	for id, gr := range g.graphs {
		switch {
		case gr == nil:
			removed = append(removed, int32(id))
		case id >= d.baseLen || g.editedID(int32(id)):
			changed = append(changed, gr)
		}
	}
	return removed, changed
}

// editedID reports whether base-range graph id was replaced since
// construction (tracked by Replace in the generation's edited set).
func (g *generation) editedID(id int32) bool {
	_, ok := g.edited[id]
	return ok
}

// Restore rebuilds the dataset as base + delta and forces the epoch:
// starting from the constructed base generation, changed graphs (IDs ≥
// base length are additions, lower IDs replacements) are installed,
// removed IDs tombstoned, and the generation published with exactly the
// given epoch. It works whatever the current generation holds — a
// snapshot load replaces local history wholesale — and
// Restore(nil, nil, 0) resets to the pristine base.
func (d *Dataset) Restore(removed []int32, changed []*graph.Graph, epoch int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The restored ID space spans the base plus every addition and every
	// tombstone the delta mentions: an added-then-removed graph leaves a
	// hole ≥ baseLen that carries no graph, only a removed ID.
	idSpace := d.baseLen
	for _, g := range changed {
		if int(g.ID()) >= idSpace {
			idSpace = int(g.ID()) + 1
		}
	}
	for _, id := range removed {
		if int(id) >= idSpace {
			idSpace = int(id) + 1
		}
	}
	next := &generation{graphs: make([]*graph.Graph, idSpace), live: d.baseLen}
	copy(next.graphs, d.base.graphs)
	for _, g := range changed {
		if int(g.ID()) < d.baseLen {
			continue
		}
		next.graphs[g.ID()] = g
		next.live++
	}
	for _, g := range changed {
		id := g.ID()
		if int(id) >= d.baseLen {
			continue
		}
		if id < 0 {
			return fmt.Errorf("dataset: restore: negative graph id %d", id)
		}
		next.graphs[id] = g
		if next.edited == nil {
			next.edited = make(map[int32]struct{})
		}
		next.edited[id] = struct{}{}
	}
	for _, id := range removed {
		if id < 0 || int(id) >= len(next.graphs) {
			return fmt.Errorf("dataset: restore: removed id %d out of range", id)
		}
		if next.graphs[id] != nil {
			next.graphs[id] = nil
			next.live--
		}
	}
	next.epoch = epoch - 1 // publish advances by one
	d.publish(next)
	return nil
}

// clone returns a mutable copy of a generation sharing the graph
// values. publish stamps the next epoch and swaps it in; callers hold
// d.mu across clone→publish.
func (g *generation) clone() *generation {
	next := &generation{
		graphs: make([]*graph.Graph, len(g.graphs)),
		live:   g.live,
		epoch:  g.epoch,
	}
	copy(next.graphs, g.graphs)
	if g.edited != nil {
		next.edited = make(map[int32]struct{}, len(g.edited))
		for id := range g.edited {
			next.edited[id] = struct{}{}
		}
	}
	return next
}

func (d *Dataset) publish(next *generation) {
	next.epoch++
	d.gen.Store(next)
}

// fingerprint hashes the live count plus every live graph's ID, label
// sequence and sorted edge set with FNV-1a — order-sensitive, so graph
// N with label X in slot 3 hashes differently from the same graph in
// slot 4.
func fingerprint(graphs []*graph.Graph, live int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w32 := func(x int32) {
		u := uint32(x)
		buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(buf[:4])
	}
	w32(int32(live))
	for id, g := range graphs {
		if g == nil {
			continue
		}
		w32(int32(id))
		w32(int32(g.NumVertices()))
		for i := 0; i < g.NumVertices(); i++ {
			w32(int32(g.Label(int32(i))))
		}
		g.Edges(func(u, v int32) {
			w32(u)
			w32(v)
		})
	}
	return h.Sum64()
}

// Stats summarises the shape of a dataset, mirroring the statistics the
// paper reports for AIDS/PDBS/PCM/Synthetic (§7.2).
type Stats struct {
	NumGraphs      int
	AvgVertices    float64
	StdVertices    float64
	MaxVertices    int
	AvgEdges       float64
	StdEdges       float64
	MaxEdges       int
	AvgDegree      float64 // mean over graphs of 2m/n
	DistinctLabels int     // across the whole dataset
}

// ComputeStats scans the live graphs and returns their shape statistics.
func (d *Dataset) ComputeStats() Stats {
	gen := d.gen.Load()
	s := Stats{NumGraphs: gen.live}
	if gen.live == 0 {
		return s
	}
	labels := make(map[graph.Label]struct{})
	var sumV, sumV2, sumE, sumE2, sumDeg float64
	for _, g := range gen.graphs {
		if g == nil {
			continue
		}
		v, e := float64(g.NumVertices()), float64(g.NumEdges())
		sumV += v
		sumV2 += v * v
		sumE += e
		sumE2 += e * e
		sumDeg += g.AvgDegree()
		if g.NumVertices() > s.MaxVertices {
			s.MaxVertices = g.NumVertices()
		}
		if g.NumEdges() > s.MaxEdges {
			s.MaxEdges = g.NumEdges()
		}
		for _, l := range g.Labels() {
			labels[l] = struct{}{}
		}
	}
	n := float64(gen.live)
	s.AvgVertices = sumV / n
	s.AvgEdges = sumE / n
	s.AvgDegree = sumDeg / n
	s.StdVertices = math.Sqrt(maxf(0, sumV2/n-s.AvgVertices*s.AvgVertices))
	s.StdEdges = math.Sqrt(maxf(0, sumE2/n-s.AvgEdges*s.AvgEdges))
	s.DistinctLabels = len(labels)
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// String renders the stats in the paper's style.
func (s Stats) String() string {
	return fmt.Sprintf("graphs=%d vertices(avg=%.1f std=%.1f max=%d) edges(avg=%.1f std=%.1f max=%d) avgdeg=%.2f labels=%d",
		s.NumGraphs, s.AvgVertices, s.StdVertices, s.MaxVertices,
		s.AvgEdges, s.StdEdges, s.MaxEdges, s.AvgDegree, s.DistinctLabels)
}
