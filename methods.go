package graphcache

import (
	"fmt"
	"strings"

	"graphcache/internal/ctindex"
	"graphcache/internal/ggsx"
	"graphcache/internal/grapes"
	"graphcache/internal/iso"
	"graphcache/internal/method"
)

// Method is the pluggable query-processing interface — the paper's
// "Method M". GraphCache treats any Method as a black box with a filtering
// stage (produce a candidate set with no false negatives) and a
// verification stage (the sub-iso test for one candidate). The six bundled
// methods below implement it; so can any future method.
//
// Implementations must be safe for concurrent use.
type Method = method.Method

// Mode distinguishes subgraph-query methods (answers contain the query)
// from supergraph-query methods (answers are contained in the query).
type Mode = method.Mode

// Query semantics a Method answers.
const (
	// ModeSubgraph: return dataset graphs G with q ⊆ G.
	ModeSubgraph = method.ModeSubgraph
	// ModeSupergraph: return dataset graphs G with G ⊆ q.
	ModeSupergraph = method.ModeSupergraph
)

// DynamicMethod is the optional extension a Method implements to stay
// sound across live dataset mutations: ApplyDatasetMutation is called
// under the cache's mutation gate with the graphs added, the graphs
// edited (replacement versions, same IDs) and the IDs removed, and must
// leave the method's filtering with no false negatives over the new
// generation. All bundled methods implement it — the FTV indexes
// maintain their structures incrementally; the SI methods read the live
// dataset and need no maintenance. Cache.ApplyMutation refuses methods
// that do not implement it with ErrStaticMethod.
type DynamicMethod = method.DynamicMethod

// Answer runs a query through a bare method — filter then verify — without
// any caching. It is the baseline GraphCache is measured against.
func Answer(m Method, q *Graph) []int32 { return method.Answer(m, q) }

// FTV method constructors. All three are built over the dataset in a
// pre-processing step, as in the original systems.

// GGSXOptions configures a GraphGrepSX index. The zero value is the
// paper's configuration (paths up to 4 edges).
type GGSXOptions = ggsx.Options

// GrapesOptions configures a Grapes index: the path length of its GGSX
// filter and location index, and its verification threads. The zero value
// is Grapes1 (paths up to 4 edges, 1 verification thread); set Threads to
// 6 for the paper's Grapes6.
type GrapesOptions = grapes.Options

// CTIndexOptions configures a CT-Index fingerprint index. The zero value
// is the paper's configuration (trees ≤ 6 vertices, cycles ≤ 8, 4,096-bit
// bitmaps).
type CTIndexOptions = ctindex.Options

// NewGGSX builds a GraphGrepSX index over ds: one posting column per label
// path, holding per-graph counts; filtering keeps graphs whose path counts
// dominate the query's; verification is VF2.
func NewGGSX(ds *Dataset, opts GGSXOptions) Method { return ggsx.New(ds, opts) }

// NewGrapes builds a Grapes index over ds: GGSX's label-path columns and
// filter, plus the vertices each path's occurrences cover in each graph;
// verification is restricted to the components of the graph induced by
// the locations of the query's paths and runs on a worker pool.
func NewGrapes(ds *Dataset, opts GrapesOptions) Method { return grapes.New(ds, opts) }

// NewCTIndex builds a CT-Index over ds: tree and cycle features hashed
// into fixed-width fingerprints; filtering is a bitmap subset test;
// verification is VF2+.
func NewCTIndex(ds *Dataset, opts CTIndexOptions) Method { return ctindex.New(ds, opts) }

// SI method constructors. An SI method has no index: its candidate set is
// the whole dataset and all work happens in verification. GraphCache in
// front of an SI method is the paper's "fresh perspective" — caching as an
// alternative to building yet another index.

// NewVF2 returns the vanilla VF2 algorithm [Cordella et al. 2004] as a
// Method.
func NewVF2(ds *Dataset) Method { return method.NewVF2(ds) }

// NewVF2Plus returns VF2+ — VF2 with rarity- and degree-driven candidate
// ordering, the variant bundled with CT-Index — as a Method.
func NewVF2Plus(ds *Dataset) Method { return method.NewVF2Plus(ds) }

// NewGraphQL returns the GraphQL algorithm [He & Singh 2008], with
// neighbourhood-profile pruning, as a Method.
func NewGraphQL(ds *Dataset) Method { return method.NewGraphQL(ds) }

// NewSupergraphSI returns a supergraph-query method over ds: it answers
// queries with the set of dataset graphs *contained in* the query, testing
// each dataset graph against the query with VF2. Wrap it in a Cache to
// expedite supergraph queries — the cache inverts its pruning rules
// automatically based on the method's Mode.
func NewSupergraphSI(ds *Dataset) Method { return method.NewSuperSI(ds, iso.VF2{}) }

// NewMethodByName builds one of the bundled methods over ds from its
// command-line name: ggsx, grapes (or grapes1), grapes6, ctindex, vf2,
// vf2plus or graphql (case-insensitive). It backs the -method flag shared
// by gcquery and gcserved.
func NewMethodByName(name string, ds *Dataset) (Method, error) {
	switch strings.ToLower(name) {
	case "ggsx":
		return NewGGSX(ds, GGSXOptions{}), nil
	case "grapes", "grapes1":
		return NewGrapes(ds, GrapesOptions{Threads: 1}), nil
	case "grapes6":
		return NewGrapes(ds, GrapesOptions{Threads: 6}), nil
	case "ctindex":
		return NewCTIndex(ds, CTIndexOptions{}), nil
	case "vf2":
		return NewVF2(ds), nil
	case "vf2plus":
		return NewVF2Plus(ds), nil
	case "graphql":
		return NewGraphQL(ds), nil
	default:
		return nil, fmt.Errorf("graphcache: unknown method %q (want ggsx, grapes1, grapes6, ctindex, vf2, vf2plus or graphql)", name)
	}
}

// Sub-iso entry points, exposed for applications that need a bare
// containment test outside any Method.

// Contains reports whether pattern ⊆ target under non-induced subgraph
// isomorphism (injective, label- and edge-preserving), using VF2.
func Contains(pattern, target *Graph) bool {
	return iso.Contains(iso.VF2{}, pattern, target)
}

// Isomorphic reports whether g and h are isomorphic (mutually contained
// with equal sizes).
func Isomorphic(g, h *Graph) bool { return iso.Isomorphic(iso.VF2{}, g, h) }
