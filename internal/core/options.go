package core

import "runtime"

// maxPathLen is the GC query-index feature length in edges, as in
// GraphGrepSX.
const maxPathLen = 4

// calibrationWindows is how many initial windows admission control
// observes to fix its threshold.
const calibrationWindows = 3

// Options configures a Cache. The zero value gives the paper's default
// configuration (C = 100, W = 20, HD policy, path features up to 4 edges,
// admission control disabled, synchronous index rebuild) with verification
// parallelised across all available cores.
type Options struct {
	// CacheSize is the upper limit on cached queries (C, default 100).
	CacheSize int
	// WindowSize is the batch size for cache updates (W, default 20).
	WindowSize int
	// Policy is the replacement policy (default HD).
	Policy PolicyKind
	// AdmissionFraction enables cache admission control when positive:
	// after calibration, only queries whose expensiveness score
	// (verification time / filtering time) falls in the top fraction are
	// admitted (§6.2). Zero disables the component, as a zero threshold
	// does in the paper.
	AdmissionFraction float64
	// AsyncRebuild runs window passes on a background goroutine, serving
	// queries from the old GCindex meanwhile — the paper's design. Off (the
	// default, for deterministic runs) the same in-order passes run on the
	// query that filled the window. Servers and benchmarks enable it.
	AsyncRebuild bool
	// VerifyConcurrency bounds the cache's verification worker pool — the
	// paper's sized thread pools (§4, Figure 2) — used for Method M's
	// verification stage and the GC processors' container/containee
	// confirmations. The pool is shared across all concurrent Query
	// callers: each caller works inline and borrows from a shared pool of
	// VerifyConcurrency-1 extra workers only while slots are free, so N
	// callers run at most N + VerifyConcurrency - 1 verification workers
	// in total (not N × VerifyConcurrency). Results are
	// deterministic and id-ordered at any setting. Zero means
	// runtime.GOMAXPROCS(0); 1 disables the cache's own fan-out. Methods
	// with internal verification parallelism (method.BatchVerifier, e.g.
	// Grapes with >1 thread) keep their own pool regardless.
	VerifyConcurrency int

	// Ablation switches (all default off = full GraphCache).

	// DisableExactMatch turns off special case 1: the exact-match lookup
	// that runs ahead of Method M's filter and the containment probe and
	// answers an isomorphic repeat from the cache. It is the only switch
	// exact matching depends on — the two below leave it on.
	DisableExactMatch bool
	// DisableSubHits ignores cached queries containing the new query.
	DisableSubHits bool
	// DisableSuperHits ignores cached queries contained in the new query.
	DisableSuperHits bool
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 100
	}
	if o.WindowSize <= 0 {
		o.WindowSize = 20
	}
	if o.VerifyConcurrency <= 0 {
		o.VerifyConcurrency = runtime.GOMAXPROCS(0)
	}
	return o
}
