// Package core implements GraphCache itself: the semantic cache for
// subgraph/supergraph queries of Wang, Ntarmos & Triantafillou (EDBT
// 2017). A Cache wraps any method.Method (FTV or SI) and uses previously
// answered queries — indexed in GCindex — to prune the method's candidate
// sets (Eq. 1 and 2 of §5.1), to answer isomorphic queries outright — by a
// lookup that runs before any of the rest — and to shortcut provably empty
// queries. Cache contents are managed through a Window with optional
// admission control and one of five replacement policies (§6).
//
// The query engine is concurrent on two axes, mirroring the paper's sized
// thread pools (§4, Figure 2): a Cache is safe for any number of
// concurrent Query callers, and within one query both Method M's
// verification stage and the GC processors' containment confirmations fan
// out over a bounded worker pool (Options.VerifyConcurrency). The
// cached-query store is physically partitioned into Options.Shards
// feature-hash shards — each with its own GCindex snapshot, window segment
// and statistics columns — while staying one logical set: probes fan out
// across all shards and merge deterministically. Index rebuilds run
// per-shard, in parallel, and can additionally run asynchronously.
// Answers are always exactly those the wrapped method would produce — the
// pruning rules are sound, never heuristic — and are deterministic
// regardless of the pool size or shard count.
package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// Cache is a GraphCache instance in front of one Method M.
type Cache struct {
	m    method.Method
	opts Options
	// vecFilter is m's filter over an already-extracted feature vector,
	// set when m offers one at the cache's own MaxPathLen (see filterM).
	vecFilter method.VectorFilter
	// algo verifies sub/supergraph relations between the new query and
	// cached queries (small-vs-small tests). Stateless and shared by all
	// worker goroutines.
	algo iso.Algorithm
	// graphCost holds, by dataset-graph ID, the terms of the cost model
	// that depend on the dataset graph alone (see costTerms).
	graphCost []costTerms
	// pool bounds total in-flight verification workers across all
	// concurrent Query callers (Options.VerifyConcurrency): each caller
	// works inline and borrows pooled extras only while slots are free.
	pool *method.Limiter

	// shards partition the cached-query store by feature hash; each shard
	// owns its own GCindex snapshot, window segment and statistics
	// columns. len(shards) == opts.Shards, fixed at construction.
	shards []*cacheShard

	serial atomic.Int64

	// winPending counts window entries across all shard segments; the
	// Window Manager fires when it reaches opts.WindowSize, so window
	// semantics stay global whatever the shard count.
	winPending atomic.Int64
	// winTrigMu serialises the detach of a filled window's segments.
	winTrigMu sync.Mutex

	// probes pools probeScratch values so the sharded GCindex probe's
	// fan-out, merge and per-slot counter slices are reused across
	// queries, one scratch per query being probed.
	probes sync.Pool

	admMu sync.Mutex
	adm   admission

	rebuildMu sync.Mutex
	rebuildWG sync.WaitGroup

	// Mutation gate (see mutate.go): queries register in inflight;
	// ApplyMutation raises mutating, drains inflight to zero and then has
	// the cache to itself. gateMu blocks arriving queries for the duration
	// of a mutation; mutApplyMu serialises whole mutations (and snapshot
	// loads) and guards lastSeq.
	inflight   atomic.Int64
	mutating   atomic.Bool
	gateMu     sync.Mutex
	mutApplyMu sync.Mutex
	// lastSeq is the highest Mutation.Seq applied. Written under
	// mutApplyMu (and, for actual mutations, the rebuild lock), read
	// atomically so WriteSnapshot can stamp it while holding only
	// rebuildMu.
	lastSeq atomic.Int64

	// obs is the telemetry Observer (see observer.go); nil when no
	// observer is installed — the hot path pays one atomic load.
	obs atomic.Pointer[observerBox]

	totMu sync.Mutex
	tot   Totals
}

// Totals are cumulative counters over the cache's lifetime.
type Totals struct {
	Queries             int64
	Batches             int64 // pipeline runs of two or more queries
	SubIsoTests         int64 // dataset-graph verifications performed
	GCVerifications     int64 // sub-iso tests against cached queries
	ExactHits           int64
	EmptyShortcuts      int64
	ContainerHits       int64 // non-exact queries matched by ≥1 cached container
	ContaineeHits       int64 // non-exact queries matched by ≥1 cached containee
	FilterMTime         time.Duration
	FilterGCTime        time.Duration
	VerifyTime          time.Duration
	MaintenanceTime     time.Duration
	WindowsProcessed    int64
	Rebuilds            int64
	Admitted            int64
	Evicted             int64
	RejectedByAdmission int64
	Mutations           int64 // dataset mutations applied (see ApplyMutation)
}

// QueryStats describes how one query was processed. An exact hit is
// resolved by the lookup alone: its GCVerifications are the lookup's
// confirming tests (normally 1), it has no Containers or Containees — the
// containment probe never ran — and no Method M figures.
type QueryStats struct {
	Serial          int64
	FilterMTime     time.Duration // Method M filtering
	FilterGCTime    time.Duration // GC processors (exact lookup, index probe, relation verification)
	VerifyTime      time.Duration // Method M verification of the pruned set
	CandidatesM     int           // |CS_M|
	CandidatesFinal int           // |CS_GC| actually verified
	SubIsoTests     int           // dataset sub-iso tests (= CandidatesFinal)
	GCVerifications int           // sub-iso tests against cached queries (lookup matches + probe candidates)
	DirectAnswers   int           // answers lifted from cached answer sets
	Containers      int           // verified cached queries containing q
	Containees      int           // verified cached queries contained in q
	ExactHit        bool
	EmptyShortcut   bool
	AnswerSize      int
}

// TotalTime is the query's processing latency. Method M's filter and the
// GC processors run in parallel (§4, Figure 2), so the filtering stage
// costs the slower of the two, followed by verification. Cache
// maintenance runs off the query path and is accounted separately.
func (s QueryStats) TotalTime() time.Duration {
	f := s.FilterMTime
	if s.FilterGCTime > f {
		f = s.FilterGCTime
	}
	return f + s.VerifyTime
}

// Result is a processed query's answer and statistics.
type Result struct {
	Answer []int32 // sorted dataset-graph IDs
	Stats  QueryStats
}

// New builds a GraphCache over Method M. The cache starts empty and warms
// up as queries arrive (§5.1).
func New(m method.Method, opts Options) *Cache {
	opts = opts.withDefaults()
	c := &Cache{
		m:    m,
		opts: opts,
		algo: iso.VF2{},
		adm:  newAdmission(opts),
		pool: method.NewLimiter(opts.VerifyConcurrency - 1),
	}
	if vf, ok := m.(method.VectorFilter); ok && vf.FilterPathLen() == opts.MaxPathLen {
		c.vecFilter = vf
	}
	c.syncGraphCosts()
	c.shards = make([]*cacheShard, opts.Shards)
	for i := range c.shards {
		sh := &cacheShard{stats: NewStatsStore(), byAnswer: make(map[int32]map[int64]struct{})}
		sh.index.Store(buildQueryIndex(nil, opts.MaxPathLen))
		c.shards[i] = sh
	}
	c.probes.New = func() any { return newProbeScratch(opts.Shards) }
	c.SetObserver(opts.Observer)
	return c
}

// Method returns the wrapped Method M.
func (c *Cache) Method() method.Method { return c.m }

// Options returns the cache's (defaulted) configuration.
func (c *Cache) Options() Options { return c.opts }

// filterM runs Method M's filter for q, whose feature vector is qv. A
// method that filters on the same vector the cache extracts takes qv as
// is; any other runs its own Filter(q).
func (c *Cache) filterM(q *graph.Graph, qv pathfeat.Vector) []int32 {
	if c.vecFilter != nil {
		return c.vecFilter.FilterVector(qv)
	}
	return c.m.Filter(q)
}

// probe runs q's feature vector qv against the index snapshots ixs — one
// per shard, in parallel when it pays — and returns the merged candidate
// entries: sub-candidates first (checks[:nSub], potential containers of
// q), then super-candidates, each group in ascending serial order — the
// same deterministic order an unsharded probe produces. All intermediate
// slices, including the per-slot probe counters, come from the per-cache
// scratch pool, so the probe allocates only the returned list; the pool
// drops snapshot and entry references on return so it never pins a
// superseded GCindex generation.
func (c *Cache) probe(ixs []*queryIndex, qv pathfeat.Vector) (checks []*entry, nSub int) {
	if len(qv) == 0 {
		return nil, 0
	}
	sc := c.probes.Get().(*probeScratch)
	defer func() {
		sc.release()
		c.probes.Put(sc)
	}()
	copy(sc.ixs, ixs)
	if len(c.shards) == 1 {
		sc.sub[0], sc.super[0] = sc.ixs[0].candidatesInto(qv, sc.sub[0][:0], sc.super[0][:0], &sc.slots[0])
	} else {
		c.pool.ParallelFor(len(c.shards), func(i int) {
			sc.sub[i], sc.super[i] = sc.ixs[i].candidatesInto(qv, sc.sub[i][:0], sc.super[i][:0], &sc.slots[i])
		})
	}

	// Merge the per-shard serial lists into entry lists ordered by
	// ascending serial. Shards hold disjoint serial sets and each
	// per-shard list is already sorted, so a k-way cursor merge keeps the
	// global order in O(total · shards).
	sc.subE = mergeCandidates(sc.subE[:0], sc.cur, sc.ixs, sc.sub)
	sc.supE = mergeCandidates(sc.supE[:0], sc.cur, sc.ixs, sc.super)
	subE, supE := sc.subE, sc.supE
	if c.opts.DisableSubHits {
		subE = nil
	}
	if c.opts.DisableSuperHits {
		supE = nil
	}
	if len(subE)+len(supE) == 0 {
		return nil, 0
	}
	checks = make([]*entry, 0, len(subE)+len(supE))
	checks = append(checks, subE...)
	checks = append(checks, supE...)
	return checks, len(subE)
}

// mergeCandidates resolves the per-shard candidate serials to entries and
// merges them into out in ascending serial order: a k-way merge over one
// cursor per shard (cur is caller-provided scratch, len(serials) wide).
// Shard counts are small, so a linear min scan beats a heap.
func mergeCandidates(out []*entry, cur []int, ixs []*queryIndex, serials [][]int64) []*entry {
	for i := range cur {
		cur[i] = 0
	}
	for {
		best := -1
		var bestSerial int64
		for i, list := range serials {
			if cur[i] >= len(list) {
				continue
			}
			if s := list[cur[i]]; best < 0 || s < bestSerial {
				best, bestSerial = i, s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, ixs[best].lookup(bestSerial))
		cur[best]++
	}
}

// candidateCosts applies the paper's cost model c(q, G) to every dataset
// graph of Method M's candidate set, in csM's order. A query's own repeat
// cost and the savings credited to the entries that pruned it are both
// sums over these values, so each is computed once.
func (c *Cache) candidateCosts(q *graph.Graph, csM []int32) []float64 {
	n := q.NumVertices()
	costs := make([]float64, len(csM))
	for i, gid := range csM {
		costs[i] = c.graphCost[gid].cost(n)
	}
	return costs
}

// sumCostsOf adds up the costs of ids, a sorted subset of csM, in ids'
// order; costs is parallel to csM.
func sumCostsOf(ids, csM []int32, costs []float64) float64 {
	sum, j := 0.0, 0
	for _, id := range ids {
		for csM[j] != id {
			j++
		}
		sum += costs[j]
	}
	return sum
}

func sumFloats(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// setGraphCost records the cost-model terms of dataset graph g. Callers
// own the cache exclusively (construction, snapshot load, the mutation
// gate).
func (c *Cache) setGraphCost(g *graph.Graph) {
	if grow := int(g.ID()) + 1 - len(c.graphCost); grow > 0 {
		c.graphCost = append(c.graphCost, make([]costTerms, grow)...)
	}
	c.graphCost[g.ID()] = newCostTerms(g.NumVertices(), g.DistinctLabels())
}

// syncGraphCosts derives the cost-model terms of every live dataset graph.
func (c *Cache) syncGraphCosts() {
	ds := c.m.Dataset()
	for id := 0; id < ds.Len(); id++ {
		if g := ds.Graph(int32(id)); g != nil { // nil = removed by a mutation
			c.setGraphCost(g)
		}
	}
}

// addToWindow appends a processed query to its shard's window segment and
// triggers the Window Manager when the window — counted globally across
// all segments — is full (§6.2). Appends contend only on the owning
// shard's lock; the filled window's segments are snapshotted and detached
// under the trigger lock, so exactly one caller processes each window.
func (c *Cache) addToWindow(w *windowEntry, currentSerial int64) {
	w.e.routeHash(c.opts.MaxPathLen)
	sh := c.shardFor(w.e)
	sh.winMu.Lock()
	sh.window = append(sh.window, w)
	sh.winMu.Unlock()
	if c.winPending.Add(1) < int64(c.opts.WindowSize) {
		return
	}
	c.winTrigMu.Lock()
	if c.winPending.Load() < int64(c.opts.WindowSize) {
		// Another caller detached this window first.
		c.winTrigMu.Unlock()
		return
	}
	segs := make([][]*windowEntry, len(c.shards))
	detached := 0
	for i, s := range c.shards {
		s.winMu.Lock()
		segs[i] = s.window
		s.window = make([]*windowEntry, 0, c.opts.WindowSize)
		s.winMu.Unlock()
		detached += len(segs[i])
	}
	c.winPending.Add(int64(-detached))
	c.winTrigMu.Unlock()
	c.processWindow(segs, currentSerial)
}

// add folds one query's stats into the totals; the caller holds totMu.
func (t *Totals) add(qs *QueryStats) {
	t.Queries++
	t.SubIsoTests += int64(qs.SubIsoTests)
	t.GCVerifications += int64(qs.GCVerifications)
	if qs.ExactHit {
		t.ExactHits++
	}
	if qs.EmptyShortcut {
		t.EmptyShortcuts++
	}
	if qs.Containers > 0 {
		t.ContainerHits++
	}
	if qs.Containees > 0 {
		t.ContaineeHits++
	}
	t.FilterMTime += qs.FilterMTime
	t.FilterGCTime += qs.FilterGCTime
	t.VerifyTime += qs.VerifyTime
}

// Totals returns a snapshot of the lifetime counters.
func (c *Cache) Totals() Totals {
	c.totMu.Lock()
	defer c.totMu.Unlock()
	return c.tot
}

// Flush waits for any in-flight asynchronous index rebuilds — call before
// reading final statistics or shutting down.
func (c *Cache) Flush() { c.rebuildWG.Wait() }

// CachedSerials returns the serials currently indexed, ascending, across
// all shards.
func (c *Cache) CachedSerials() []int64 {
	var out []int64
	for _, sh := range c.shards {
		out = append(out, sh.index.Load().serials...)
	}
	if len(c.shards) > 1 {
		slices.Sort(out)
	}
	return out
}

// CachedEntry returns the query graph and answer set cached under serial,
// or (nil, nil, false).
func (c *Cache) CachedEntry(serial int64) (*graph.Graph, []int32, bool) {
	for _, sh := range c.shards {
		if e := sh.index.Load().lookup(serial); e != nil {
			return e.g, cloneIDs(e.answer), true
		}
	}
	return nil, nil, false
}

// Stats exposes the statistics store (the Statistics Manager interface).
// With one shard it is the live store; with several it is a merged
// read-only snapshot of every shard's columns.
func (c *Cache) Stats() *StatsStore {
	if len(c.shards) == 1 {
		return c.shards[0].stats
	}
	merged := NewStatsStore()
	for _, sh := range c.shards {
		sh.stats.copyInto(merged)
	}
	return merged
}

// AdmissionThreshold returns the calibrated expensiveness threshold (0
// while disabled or calibrating).
func (c *Cache) AdmissionThreshold() float64 {
	c.admMu.Lock()
	defer c.admMu.Unlock()
	if c.adm.calibrating {
		return 0
	}
	return c.adm.threshold
}

func cloneIDs(s []int32) []int32 {
	if len(s) == 0 {
		return nil
	}
	return append([]int32(nil), s...)
}
