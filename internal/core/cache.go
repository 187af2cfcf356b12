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
// cached-query store is one GCindex generation, published atomically and
// read without locks; a window pass derives the next generation on the
// query that fills the window. Answers are always exactly those the
// wrapped method would produce — the pruning rules are sound, never
// heuristic — and are deterministic regardless of the pool size.
package core

import (
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
	// set when m offers one at the cache's own maxPathLen (see filterM).
	vecFilter method.VectorFilter
	// algo verifies sub/supergraph relations between the new query and
	// cached queries (small-vs-small tests). Stateless and shared by all
	// worker goroutines.
	algo iso.Algorithm
	// costs prices candidates with the cost model: a class per dataset
	// graph and a row of class costs per query size (see costModel).
	costs costModel
	// pool bounds total in-flight verification workers across all
	// concurrent Query callers (Options.VerifyConcurrency): each caller
	// works inline and borrows pooled extras only while slots are free.
	pool *method.Limiter

	// index is the cached-query store: GCindex's current generation, which
	// window passes and mutations replace wholesale and queries read
	// without locks.
	index atomic.Pointer[queryIndex]

	// window holds the processed queries awaiting the next window pass
	// (§6.2), queue the filled windows awaiting theirs, oldest first;
	// filled and applied count windows queued and passes finished, and
	// passDone broadcasts each pass (see addToWindow). Guarded by winMu.
	winMu    sync.Mutex
	window   []*entry
	queue    []filledWindow
	filled   uint64
	applied  uint64
	passDone sync.Cond

	serial atomic.Int64

	// probes pools probeScratch values so the GCindex probe's per-slot
	// counters and candidate lists are reused across queries, one scratch
	// per query being probed.
	probes sync.Pool

	admMu sync.Mutex
	adm   admission

	// gate is the mutation gate (see mutate.go): a run of the pipeline
	// holds its read lock from start to end, window pass included, and a
	// mutation or snapshot load holds its write lock, so it has the cache
	// to itself; a waiting writer blocks arriving runs. mutApplyMu
	// serialises whole mutations, snapshot loads and snapshot writes, and
	// guards lastSeq.
	gate       sync.RWMutex
	mutApplyMu sync.Mutex
	// lastSeq is the highest Mutation.Seq applied. Written under
	// mutApplyMu, read atomically so LastMutationSeq needs no lock.
	lastSeq atomic.Int64

	// obs is the telemetry Observer (see observer.go); nil when no
	// observer is installed.
	obs atomic.Pointer[observerBox]

	// totMu is the ledger lock: it guards the lifetime totals and every
	// entry's hit counters, so a run credits its entries and folds its
	// totals in one critical section.
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
	Admitted            int64
	Evicted             int64
	RejectedByAdmission int64
	Mutations           int64 // dataset mutations applied (see ApplyMutation)
}

// QueryStats describes how one query was processed — the one record per
// query of the Statistics Manager (§6.1): the pipeline fills it in, hands
// it over with the answer, and every consumer (Totals, the serving tiers'
// metrics, traces, logs) reads it from there. An exact hit is resolved by
// the lookup alone: its GCVerifications are the lookup's confirming tests
// (normally 1), it has no Containers or Containees — the containment probe
// never ran — and no Method M figures.
//
// The GC stage and its split are the query's even share of its run's
// stage time, and VerifyTime its share of the run's verification time in
// proportion to its candidate-set size, so the records of a run sum to
// what it adds to Totals (see QueryBatchContext). The fields tagged
// json:"-" stay in the process: replies do not carry them.
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

	// FilterGCTime split: path-feature extraction (only for the queries
	// the exact lookup left open), the exact lookup (the IsoKey and its
	// confirming test) plus the containment probe, and the containment
	// confirmations. The three sum to at most FilterGCTime.
	FeatureTime  time.Duration `json:"-"`
	ProbeTime    time.Duration `json:"-"`
	GCVerifyTime time.Duration `json:"-"`
	// Credit is the cost-model estimate of the verification time the
	// cache hits saved this query, as credited to the matched entries.
	Credit float64 `json:"-"`
}

// TotalTime is the query's processing latency: the GC processors, then
// Method M's filter, then verification, one after the other. A window
// pass runs on the query that fills the window, after its answer is
// assembled, and is counted in Totals.MaintenanceTime, not here.
func (s QueryStats) TotalTime() time.Duration {
	return s.FilterGCTime + s.FilterMTime + s.VerifyTime
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
	c.passDone.L = &c.winMu
	if vf, ok := m.(method.VectorFilter); ok && vf.FilterPathLen() == maxPathLen {
		c.vecFilter = vf
	}
	c.syncGraphCosts()
	c.index.Store(buildQueryIndex(nil))
	c.probes.New = func() any { return new(probeScratch) }
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

// probeScratch is one in-flight probe's reusable state: the per-slot
// counters and the sub- and super-candidate lists. Pooled per cache so the
// steady-state probe allocates only the list it returns.
type probeScratch struct {
	slots      slotScratch
	sub, super []*entry
}

// probe runs q's feature vector qv against the index generation ix and
// returns the candidate entries: sub-candidates first (checks[:nSub],
// potential containers of q), then super-candidates, each group in
// ascending serial order. Everything else comes from the per-cache scratch
// pool, so the probe allocates only the returned list; the scratch drops
// its entry references on return so it never pins a superseded GCindex
// generation.
func (c *Cache) probe(ix *queryIndex, qv pathfeat.Vector) (checks []*entry, nSub int) {
	if len(qv) == 0 {
		return nil, 0
	}
	sc := c.probes.Get().(*probeScratch)
	defer func() {
		clear(sc.sub)
		clear(sc.super)
		c.probes.Put(sc)
	}()
	sc.sub, sc.super = ix.candidatesInto(qv, sc.sub[:0], sc.super[:0], &sc.slots)
	sub, super := sc.sub, sc.super
	if c.opts.DisableSubHits {
		sub = nil
	}
	if c.opts.DisableSuperHits {
		super = nil
	}
	if len(sub)+len(super) == 0 {
		return nil, 0
	}
	checks = make([]*entry, 0, len(sub)+len(super))
	checks = append(checks, sub...)
	checks = append(checks, super...)
	return checks, len(sub)
}

// syncGraphCosts records the cost class of every live dataset graph. The
// caller owns the cache exclusively (construction, snapshot load).
func (c *Cache) syncGraphCosts() {
	ds := c.m.Dataset()
	for id := 0; id < ds.Len(); id++ {
		if g := ds.Graph(int32(id)); g != nil { // nil = removed by a mutation
			c.costs.set(g)
		}
	}
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

// CachedSerials returns the serials currently indexed, ascending.
func (c *Cache) CachedSerials() []int64 {
	return append([]int64(nil), c.index.Load().serials...)
}

// CachedEntry returns the query graph and answer set cached under serial,
// or (nil, nil, false).
func (c *Cache) CachedEntry(serial int64) (*graph.Graph, []int32, bool) {
	if e := c.index.Load().lookup(serial); e != nil {
		return e.g, cloneIDs(e.answer), true
	}
	return nil, nil, false
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
