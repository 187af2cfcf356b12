package graphcache

import (
	"graphcache/internal/core"
)

// Cache is a GraphCache instance in front of one Method. Create one with
// New; run queries with Query. A Cache is the system of the paper: the
// query-processing runtime (candidate-set pruning via cached answers,
// exact-match and empty-answer shortcuts) plus the cache manager (window-
// batched admission, replacement policies, statistics).
//
// Query is safe for any number of concurrent callers, and verification
// inside each query fans out over a worker pool sized by
// Options.VerifyConcurrency; see the package documentation's Concurrency
// section. The engine is one staged pipeline:
// QueryBatchContext runs it over many queries as one unit under a
// context — amortising index probes, pool dispatches and statistics
// updates across the batch, with answers identical to sequential Query
// calls — QueryBatch runs it without a deadline, and Query is the same
// pipeline over one query. The serving subsystem (see Server)
// runs each request through it: a /querybatch as one batch, a /query as a
// batch of one.
//
// Cache contents persist across restarts through WriteSnapshot (call on
// shutdown) and ReadSnapshot (call on startup, over the same dataset) —
// the lifecycle of the paper's Cache stores (§6.1).
type Cache = core.Cache

// Options configures a Cache. The zero value gives the paper's default
// configuration — C = 100 cached queries, window W = 20, HD replacement,
// admission control disabled — and is the cache gcserved runs with its
// default flags. Each window pass runs on the query that fills the window.
type Options = core.Options

// Result is a processed query's answer and statistics. Answer holds the
// sorted IDs of matching dataset graphs; Stats records where the time went
// and which cache mechanisms fired.
type Result = core.Result

// QueryStats describes how one query was processed: filtering and
// verification times, candidate-set sizes before and after pruning,
// sub-iso test counts, and which special cases (exact hit, empty-answer
// shortcut) applied. It is the one per-query record; its json:"-" fields
// (the GC stage's split, the hit credit) never leave the process.
type QueryStats = core.QueryStats

// Totals are cumulative counters over a Cache's lifetime: queries served,
// sub-iso tests run, hits by kind, time by stage, and maintenance work.
type Totals = core.Totals

// Observer receives a Cache's whole-cache telemetry: one
// WindowObservation per Window Manager pass, which runs inside whichever
// query's run drains the window. Install it with Cache.SetObserver; the
// default nil observer costs one atomic load per pass. gcserved installs a
// metrics-backed one — see the package documentation's Telemetry section.
type Observer = core.Observer

// WindowObservation is one Window Manager pass: wall time plus the
// admission/eviction outcome.
type WindowObservation = core.WindowObservation

// PolicyKind selects a cache replacement policy.
type PolicyKind = core.PolicyKind

// The five replacement policies of §6.3. Each assigns cached queries a
// utility; the lowest-utility entries are evicted when the window's
// admitted queries need room.
const (
	// LRU evicts the least recently hit queries.
	LRU = core.LRU
	// POP ranks by popularity over age: H/A.
	POP = core.POP
	// PIN ranks by sub-iso tests alleviated over age: R/A.
	PIN = core.PIN
	// PINC ranks by estimated time saved over age: C/A.
	PINC = core.PINC
	// HD picks PIN when the R distribution has squared coefficient of
	// variation > 1, PINC otherwise — the paper's recommended default.
	HD = core.HD
)

// ParsePolicy maps a policy name ("lru", "pop", "pin", "pinc", "hd",
// case-insensitive) to its PolicyKind.
func ParsePolicy(name string) (PolicyKind, error) { return core.ParsePolicy(name) }

// MutationResult reports how Cache.ApplyMutation kept the cache sound
// across one dataset mutation: the epoch the dataset landed at, cached
// entries extended with newly matching graphs, entries whose answers
// lost removed IDs (one merge per answer set, no verification), entries
// re-verified after an edit, and entries invalidated outright; it is the
// mutation's one record, metered by its caller. See the package
// documentation's "Dynamic datasets" section.
type MutationResult = core.MutationResult

// ErrStaticMethod is returned by Cache.ApplyMutation when the underlying
// Method does not implement DynamicMethod — its index cannot be
// maintained across dataset changes, so the mutation is refused before
// touching anything.
var ErrStaticMethod = core.ErrStaticMethod

// ErrDatasetMismatch is returned by Cache.ReadSnapshot when a snapshot's
// dataset fingerprint or epoch does not match the dataset the cache was
// built over; the snapshot file is quarantined to "<path>.mismatch"
// rather than silently ignored.
var ErrDatasetMismatch = core.ErrDatasetMismatch

// New creates a Cache in front of m. The method's Mode determines whether
// the cache serves subgraph or supergraph queries; the pruning rules
// invert automatically for the latter.
func New(m Method, opts Options) *Cache { return core.New(m, opts) }

// EstimateSubIsoCost is the paper's §5.2 cost model for one sub-iso test
// of an n-vertex query against an N-vertex dataset graph with L distinct
// labels: c = N·N! / (L^(n+1)·(N−n)!), computed in log space. PINC and HD
// use it to weigh alleviated tests; it is exported for applications that
// want the same yardstick.
func EstimateSubIsoCost(n, N, L int) float64 { return core.EstimateSubIsoCost(n, N, L) }
