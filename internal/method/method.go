// Package method defines the pluggable query-processing interface — the
// paper's "Method M" — and the direct subgraph-isomorphism (SI) methods
// that implement it by scanning the whole dataset. The filter-then-verify
// (FTV) methods (GGSX, Grapes, CT-Index) implement the same interface in
// their own packages.
package method

import (
	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/pathfeat"
)

// Mode says which query semantics a Method answers.
type Mode int

const (
	// ModeSubgraph methods answer subgraph queries: find dataset graphs G
	// with q ⊆ G.
	ModeSubgraph Mode = iota
	// ModeSupergraph methods answer supergraph queries: find dataset
	// graphs G with G ⊆ q.
	ModeSupergraph
)

func (m Mode) String() string {
	if m == ModeSupergraph {
		return "supergraph"
	}
	return "subgraph"
}

// Method is a pluggable query-processing method. GraphCache treats any
// Method as a black box with a filtering stage and a verification stage;
// for SI methods the filtering stage returns the whole dataset.
//
// Implementations must be safe for concurrent use by multiple goroutines.
type Method interface {
	// Name identifies the method ("ggsx", "ctindex", "vf2", ...).
	Name() string
	// Mode reports the query semantics the method answers.
	Mode() Mode
	// Dataset returns the dataset the method was built over.
	Dataset() *dataset.Dataset
	// Filter returns the candidate set for query q: dataset-graph IDs that
	// may satisfy the query, in ascending order. It must never drop a true
	// answer (no false negatives).
	Filter(q *graph.Graph) []int32
	// Verify runs the sub-iso test for candidate id: in ModeSubgraph it
	// reports q ⊆ G_id, in ModeSupergraph G_id ⊆ q.
	Verify(q *graph.Graph, id int32) bool
}

// DynamicMethod is an optional extension implemented by methods whose
// filtering structures stay sound while the dataset mutates. The cache
// refuses to apply mutations through a method that lacks it, because an
// unmaintained filter index could silently drop true answers (false
// negatives) for graphs it never indexed.
//
// ApplyDatasetMutation is called after the dataset has advanced to the
// generation reflecting the mutation: added holds appended graphs,
// edited replaced graphs (same IDs, new content), removed tombstoned
// IDs. The caller guarantees no Filter/Verify runs concurrently, so
// implementations need no internal synchronisation beyond what their
// build path already has. Filters may keep returning removed IDs
// (the cache masks candidates against live IDs), but must never drop a
// live true answer.
type DynamicMethod interface {
	ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32)
}

// BatchVerifier is an optional extension for methods with internal
// verification parallelism (Grapes with >1 thread). Callers should use
// VerifyBatch when available; results align with ids.
type BatchVerifier interface {
	VerifyBatch(q *graph.Graph, ids []int32) []bool
}

// VectorFilter is an optional extension for methods whose filter is a
// function of the query's simple-path feature vector alone (GGSX). A
// caller that already holds pathfeat.SimplePathVector(q, FilterPathLen())
// passes it to FilterVector and spares the method its own extraction; the
// result is exactly Filter(q)'s.
type VectorFilter interface {
	// FilterPathLen is the maximum path length, in edges, of the vectors
	// FilterVector accepts.
	FilterPathLen() int
	FilterVector(qv pathfeat.Vector) []int32
}

// VerifyAll runs the verification stage of m over ids, using batch
// verification when the method supports it.
func VerifyAll(m Method, q *graph.Graph, ids []int32) []bool {
	if bv, ok := m.(BatchVerifier); ok {
		return bv.VerifyBatch(q, ids)
	}
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = m.Verify(q, id)
	}
	return out
}

// Answer runs the full query through m (filter + verify) and returns the
// answer set in ascending ID order. It is the reference execution path
// used by baselines and correctness tests.
func Answer(m Method, q *graph.Graph) []int32 {
	// Mask tombstoned IDs: DynamicMethod lets a filter keep returning
	// removed IDs, and Verify on one would dereference a nil slot.
	cs := m.Dataset().FilterLive(m.Filter(q))
	verdicts := VerifyAll(m, q, cs)
	var ans []int32
	for i, ok := range verdicts {
		if ok {
			ans = append(ans, cs[i])
		}
	}
	return ans
}

// SI is a direct subgraph-isomorphism method: no index, candidate set =
// whole dataset, verification by the wrapped algorithm. It corresponds to
// the paper's SI category (VF2, VF2+, GraphQL).
type SI struct {
	name string
	ds   *dataset.Dataset
	algo iso.Algorithm
}

// NewSI wraps an iso.Algorithm as a Method over ds.
func NewSI(ds *dataset.Dataset, algo iso.Algorithm) *SI {
	return &SI{name: algo.Name(), ds: ds, algo: algo}
}

// NewVF2 returns the vanilla VF2 SI method.
func NewVF2(ds *dataset.Dataset) *SI { return NewSI(ds, iso.VF2{}) }

// NewVF2Plus returns the VF2+ SI method (the variant bundled with
// CT-Index).
func NewVF2Plus(ds *dataset.Dataset) *SI { return NewSI(ds, iso.VF2Plus{}) }

// NewGraphQL returns the GraphQL SI method.
func NewGraphQL(ds *dataset.Dataset) *SI { return NewSI(ds, iso.GraphQL{}) }

// Name implements Method.
func (m *SI) Name() string { return m.name }

// Mode implements Method.
func (m *SI) Mode() Mode { return ModeSubgraph }

// Dataset implements Method.
func (m *SI) Dataset() *dataset.Dataset { return m.ds }

// Filter implements Method: SI methods filter nothing.
func (m *SI) Filter(q *graph.Graph) []int32 { return m.ds.AllIDs() }

// Verify implements Method.
func (m *SI) Verify(q *graph.Graph, id int32) bool {
	return iso.Contains(m.algo, q, m.ds.Graph(id))
}

// ApplyDatasetMutation implements DynamicMethod: SI reads the live
// dataset directly, so there is nothing to maintain.
func (m *SI) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {}

// SuperSI is a direct method for supergraph queries: it reports dataset
// graphs contained in the query. Filtering uses the cheap necessary
// conditions (size and label-multiset domination by the query).
type SuperSI struct {
	ds   *dataset.Dataset
	algo iso.Algorithm
}

// NewSuperSI returns a supergraph-query method over ds using algo for the
// containment tests.
func NewSuperSI(ds *dataset.Dataset, algo iso.Algorithm) *SuperSI {
	return &SuperSI{ds: ds, algo: algo}
}

// Name implements Method.
func (m *SuperSI) Name() string { return "super-" + m.algo.Name() }

// Mode implements Method.
func (m *SuperSI) Mode() Mode { return ModeSupergraph }

// Dataset implements Method.
func (m *SuperSI) Dataset() *dataset.Dataset { return m.ds }

// Filter implements Method: a dataset graph can only be contained in q if
// q's labels dominate its labels.
func (m *SuperSI) Filter(q *graph.Graph) []int32 {
	var out []int32
	for _, g := range m.ds.Graphs() {
		if g == nil { // tombstone of a removed graph
			continue
		}
		if g.NumVertices() <= q.NumVertices() && g.NumEdges() <= q.NumEdges() && q.LabelsDominate(g) {
			out = append(out, g.ID())
		}
	}
	return out
}

// ApplyDatasetMutation implements DynamicMethod: SuperSI reads the live
// dataset directly, so there is nothing to maintain.
func (m *SuperSI) ApplyDatasetMutation(added, edited []*graph.Graph, removed []int32) {}

// Verify implements Method: G_id ⊆ q.
func (m *SuperSI) Verify(q *graph.Graph, id int32) bool {
	return iso.Contains(m.algo, m.ds.Graph(id), q)
}
