package core

import (
	"sync"
	"sync/atomic"

	"graphcache/internal/pathfeat"
)

// cacheShard is one partition of the cached-query store. The store is
// sharded physically but not logically: every shard holds a disjoint
// subset of the cached queries — an entry's shard is fixed by the hash of
// its path-feature counts — with its own GCindex snapshot, window segment
// and statistics columns, so concurrent Query callers touch disjoint
// structures on the hot path and window rebuilds parallelise per shard.
// Probes fan out across all shards and merge, keeping answers identical at
// any shard count. With Options.Shards = 1 a single shard reproduces the
// unsharded layout exactly.
type cacheShard struct {
	index atomic.Pointer[queryIndex]

	winMu  sync.Mutex
	window []*windowEntry

	stats *StatsStore

	// byAnswer is the reverse answer index: dataset-graph ID → serials of
	// the shard's indexed entries whose answer set contains it. It turns
	// "which cached answers mention graph X?" — the question a RemoveGraphs
	// mutation asks — into a map lookup instead of a cache scan. Written
	// only under the Window Manager's serialisation (window rebuilds,
	// snapshot loads) or the mutation gate's exclusivity, so it needs no
	// lock of its own.
	byAnswer map[int32]map[int64]struct{}
}

// answerRefAdd records that e's answer set mentions each of ids.
func (sh *cacheShard) answerRefAdd(serial int64, ids []int32) {
	for _, id := range ids {
		m := sh.byAnswer[id]
		if m == nil {
			m = make(map[int64]struct{})
			sh.byAnswer[id] = m
		}
		m[serial] = struct{}{}
	}
}

// answerRefDel drops serial's claim on each of ids.
func (sh *cacheShard) answerRefDel(serial int64, ids []int32) {
	for _, id := range ids {
		if m := sh.byAnswer[id]; m != nil {
			delete(m, serial)
			if len(m) == 0 {
				delete(sh.byAnswer, id)
			}
		}
	}
}

// shardOfHash maps a feature hash — an entry's memoised one, or a query's —
// to its owning shard index: the single routing formula, every placement
// and lookup goes through it (or shardFor).
func (c *Cache) shardOfHash(h uint64) int {
	return int(h % uint64(len(c.shards)))
}

// shardFor returns the shard owning an entry. The entry's hash must
// already be set — it is assigned while the entry is still exclusively
// owned by its creator (Query, addToWindow or ReadSnapshot).
func (c *Cache) shardFor(e *entry) *cacheShard {
	return c.shards[c.shardOfHash(e.hash)]
}

// routeHash returns the entry's shard-routing feature hash, computing (and
// memoising) the feature vector on first use. Callers must own the entry
// exclusively — on the query path the entry is still private to its
// creator; at window/rebuild time the Window Manager serialises access.
func (e *entry) routeHash(maxLen int) uint64 {
	if !e.hashed {
		e.hash = pathfeat.HashVector(e.featureVector(maxLen))
		e.hashed = true
	}
	return e.hash
}

// probeScratch is the per-query scratch for the sharded GCindex probe: the
// loaded index snapshots, per-shard sub/super candidate serials and slot
// counters, the merge cursors and the merged candidate entry lists. Pooled
// per cache so the probe allocates nothing at steady state.
type probeScratch struct {
	ixs        []*queryIndex
	sub, super [][]int64
	slots      []slotScratch // per-shard probe counters
	cur        []int         // merge cursors, one per shard
	subE, supE []*entry
}

func newProbeScratch(nShards int) *probeScratch {
	return &probeScratch{
		ixs:   make([]*queryIndex, nShards),
		sub:   make([][]int64, nShards),
		super: make([][]int64, nShards),
		slots: make([]slotScratch, nShards),
		cur:   make([]int, nShards),
	}
}

// release drops the scratch's references to index snapshots and entries
// before it returns to the pool, so a pooled scratch never keeps a
// superseded GCindex generation (O(cache) memory) alive across queries.
// Capacities are kept.
func (sc *probeScratch) release() {
	clear(sc.ixs)
	clear(sc.subE)
	sc.subE = sc.subE[:0]
	clear(sc.supE)
	sc.supE = sc.supE[:0]
}

// adaptiveGrain is the targeted number of verifications per worker:
// fan-out grows one worker per this many work items, and Method-M
// verification is handed out in chunks of this many tests.
const adaptiveGrain = 4

// adaptiveWorkers sizes the fan-out of a work list of n verifications:
// one worker per adaptiveGrain items, clamped to [1, VerifyConcurrency],
// so a handful of cheap tests does not wake the full pool while a large
// list gets full parallelism. Results are deterministic at any worker
// count — only scheduling changes.
func (c *Cache) adaptiveWorkers(n int) int {
	return max(1, min((n+adaptiveGrain-1)/adaptiveGrain, c.opts.VerifyConcurrency))
}
