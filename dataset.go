package graphcache

import (
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
)

// Dataset is an immutable, densely numbered collection of graphs: graph i
// has ID i. Every query-processing method and the cache operate over a
// Dataset.
type Dataset = dataset.Dataset

// DatasetStats summarises a dataset's shape: graph count, vertex/edge
// means, standard deviations and maxima, average degree and label count.
type DatasetStats = dataset.Stats

// NewDataset wraps a slice of graphs into a Dataset, assigning IDs by
// position.
func NewDataset(graphs []*Graph) *Dataset { return dataset.New(graphs) }

// Live dataset mutations. A Dataset starts as an immutable base
// generation; AddGraphs, RemoveGraphs and Replace publish fresh
// immutable generations (epoch-versioned, lock-free for readers), and a
// Cache over a mutation-capable method keeps its answers sound across
// them via Cache.ApplyMutation. See the package documentation's
// "Dynamic datasets" section.

// Mutation is one dataset change — the unit Cache.ApplyMutation applies
// atomically, gcserved journals durably, and gcrouter fans fleet-wide.
// Seq is an optional monotone sequence number for idempotent replay
// (0 = no dedup).
type Mutation = dataset.Mutation

// MutationOp names a mutation kind: OpAdd, OpRemove or OpEdit.
type MutationOp = dataset.Op

const (
	// OpAdd appends Mutation.Graphs as fresh dataset IDs.
	OpAdd = dataset.OpAdd
	// OpRemove tombstones the dataset graphs named by Mutation.IDs.
	OpRemove = dataset.OpRemove
	// OpEdit replaces live graph Mutation.IDs[0] with Mutation.Graphs[0].
	OpEdit = dataset.OpEdit
)

// ParseMutationOp parses the wire spelling of a mutation op ("add",
// "remove" or "edit").
func ParseMutationOp(s string) (MutationOp, bool) { return dataset.ParseOp(s) }

// EdgeEdit is one edge addition or deletion inside a dataset graph,
// applied through ApplyEdgeEdits or Cache.EditGraphEdges.
type EdgeEdit = dataset.EdgeEdit

// ApplyEdgeEdits returns a copy of g (same ID) with the edits applied —
// the usual way to build an OpEdit replacement graph.
func ApplyEdgeEdits(g *Graph, edits []EdgeEdit) (*Graph, error) {
	return dataset.ApplyEdgeEdits(g, edits)
}

// Synthetic dataset generators. The paper evaluates on three real-world
// datasets (AIDS antiviral screen molecules, PDBS macromolecules, PCM
// protein contact maps) plus one GraphGen-built synthetic dataset. The
// real files are not redistributable, so these generators reproduce their
// published shape statistics (§7.2 of the paper) with structural models
// appropriate to each domain. All are deterministic given the seed.

// MoleculeConfig parameterises AIDSLike: molecule-style graphs built as a
// random tree backbone plus ring-closing edges (average degree ≈ 2.09).
type MoleculeConfig = gen.MoleculeConfig

// BackboneConfig parameterises PDBSLike: long chains with occasional
// branches and cross links — few but large graphs (average degree ≈ 2.13).
type BackboneConfig = gen.BackboneConfig

// ContactMapConfig parameterises PCMLike: residue chains plus short- and
// long-range contacts — dense graphs (average degree ≈ 22.4).
type ContactMapConfig = gen.ContactMapConfig

// RandomConfig parameterises SyntheticLike: GraphGen-style random graphs
// with a spanning chain and uniform random edges (average degree ≈ 19.5).
type RandomConfig = gen.RandomConfig

// DefaultAIDS returns the configuration matching the AIDS dataset's
// published statistics: 40,000 graphs, ≈45 vertices and ≈47 edges each.
// Use Scaled to shrink it, e.g. DefaultAIDS().Scaled(0.05, 1) keeps the
// graph shapes but generates 5% as many graphs.
func DefaultAIDS() MoleculeConfig { return gen.DefaultAIDS() }

// DefaultPDBS returns the configuration matching the PDBS dataset:
// 600 graphs of ≈2,939 vertices and ≈3,064 edges.
func DefaultPDBS() BackboneConfig { return gen.DefaultPDBS() }

// DefaultPCM returns the configuration matching the PCM dataset:
// 200 graphs of ≈377 vertices and ≈4,340 edges.
func DefaultPCM() ContactMapConfig { return gen.DefaultPCM() }

// DefaultSynthetic returns the configuration matching the paper's
// synthetic dataset: 1,000 graphs of ≈892 vertices and ≈7,991 edges.
func DefaultSynthetic() RandomConfig { return gen.DefaultSynthetic() }

// AIDSLike generates a molecule-style dataset from cfg.
func AIDSLike(cfg MoleculeConfig, seed int64) *Dataset { return cfg.Generate(seed) }

// PDBSLike generates a macromolecule-backbone dataset from cfg.
func PDBSLike(cfg BackboneConfig, seed int64) *Dataset { return cfg.Generate(seed) }

// PCMLike generates a protein-contact-map dataset from cfg.
func PCMLike(cfg ContactMapConfig, seed int64) *Dataset { return cfg.Generate(seed) }

// SyntheticLike generates a GraphGen-style random dataset from cfg.
func SyntheticLike(cfg RandomConfig, seed int64) *Dataset { return cfg.Generate(seed) }
