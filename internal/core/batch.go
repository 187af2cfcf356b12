package core

import (
	"context"
	"slices"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// This file is the query pipeline — the one runtime of §4, Figure 2,
// ordered by cost: the exact-match lookup, then, for the queries it left
// open, the GC processors, then Method M's filter for the queries they
// left open, the Candidate Set Pruner, the verifier, the Window.
// QueryBatchContext is the pipeline; Query and QueryBatch run it without
// a deadline.

// How a query of a run was resolved.
const (
	stateNormal = iota // pruned, then verified by Method M
	stateExact         // special case 1: an isomorphic cached query answered it
	stateEmpty         // special case 2: a cached empty answer proves it empty
)

// queryState is everything the pipeline carries for one query of a run.
type queryState struct {
	q    *graph.Graph
	hash uint64          // q.IsoKey(): the exact lookup's key
	vec  pathfeat.Vector // q's path features; extracted only if the lookup missed

	// hit is the cached query that resolved q by a special case, or nil:
	// an isomorphic one (lookup) or one whose empty answer proves q's
	// empty (confirm). A query with one leaves the run's open list, which
	// is all the stages before prune work on.
	hit *entry

	csM []int32 // Method M's candidate set, removed IDs masked out (filter)

	// checks is the probe's candidate list, checks[:nSub] potential
	// containers of q and the rest potential containees. The confirmed ones
	// are compacted in place into containers and containees.
	checks                 []*entry
	nSub                   int
	containers, containees []*entry

	state      int
	direct, cs []int32 // prune's output: lifted answers, candidates left to verify
	off        int     // offset of cs's verdicts in the run's flattened verdict list
	ownCost    float64 // Σ c(q, G) over csM
	answer     []int32
	stats      QueryStats
}

// gcCheck is one GC containment confirmation in a run's flattened work
// list: query qi against cached entry e, testing q ⊆ e.g when sub (e is a
// candidate container) and e.g ⊆ q otherwise. ok is the verdict.
type gcCheck struct {
	qi      int
	e       *entry
	sub, ok bool
}

// verifyChunk is one unit of Method-M verification in a run's flattened
// work list: query qi against its candidates cs[lo:hi]. Workers claim and
// poll for cancellation once per chunk, not once per sub-iso test. A
// query's chunks hold max(adaptiveGrain, |cs| / (4·VerifyConcurrency))
// tests: a large candidate set is cut into about four chunks per worker,
// enough to even out the workers' loads, because smaller chunks make the
// claims and the verdict cache lines the workers share cost more than
// tests that take a fraction of a microsecond. A method.BatchVerifier's
// query is one chunk.
type verifyChunk struct {
	qi, lo, hi int
}

// Query processes q through GraphCache: the exact-match lookup, then — on
// a miss — GC filtering, the empty-answer shortcut, Method M filtering,
// candidate-set pruning, verification, and window/cache bookkeeping — the
// pipeline over one query. It is safe for any number of concurrent
// callers; each caller's answer is exactly the wrapped method's answer
// for its query, whatever the interleaving.
func (c *Cache) Query(q *graph.Graph) Result {
	// Never cancelled, so nothing is abandoned and there is no error.
	results, _, _ := c.QueryBatchContext(context.TODO(), []*graph.Graph{q})
	return results[0]
}

// QueryBatch processes a batch of queries as one run of the pipeline and
// returns the results aligned to qs. Each query receives exactly the
// answer a standalone Query call would return — the pruning rules are
// sound, so answers never depend on cache contents — id-ordered and
// deterministic at any pool size or caller interleaving. It is safe to
// call concurrently with Query and with other batches.
func (c *Cache) QueryBatch(qs []*graph.Graph) []Result {
	// Never cancelled, so nothing is abandoned and there is no error.
	results, _, _ := c.QueryBatchContext(context.TODO(), qs)
	return results
}

// QueryBatchContext is the query pipeline: it processes qs as one run
// under ctx and returns the results aligned to qs once the run's
// bookkeeping is done.
//
// The run is nine stages, each a method of run, each called once, in
// this order on the calling goroutine and the shared worker pool, and
// each past the first working only on the queries the earlier ones left
// open: lookup, extractFeatures, probe, confirm, filter, prune, verify,
// results and bookkeep. A query that either special case resolves never
// reaches Method M: a run in which every query exact-hit enumerates no
// path, and neither it nor a query proven empty is ever filtered.
//
// Each Result carries the query's QueryStats, the one per-query record:
// its stage times are its shares of the run's stages (see QueryStats), so
// a run's records sum to what it adds to Totals. A run of one query is
// not a batch to the outside: Totals.Batches counts runs of two or more.
//
// ctx cancellation is the client-gone signal: once ctx.Err() is
// non-nil, unstarted verification work is abandoned, and a run that
// abandoned any returns no results, the number of sub-iso tests it
// skipped and ctx's error, and leaves no trace in the cache — no window
// insertions, no hit credits, no totals. A cancel that lands after the
// run's last verdict skipped nothing, and the run completes. The cache
// only ever polls ctx.Err(), never waits on ctx.Done(), so composite
// contexts without a Done channel work.
func (c *Cache) QueryBatchContext(ctx context.Context, qs []*graph.Graph) (results []Result, abandoned int, err error) {
	if len(qs) == 0 {
		return nil, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	c.gate.RLock()
	defer c.gate.RUnlock()

	r := c.newRun(ctx, qs)
	r.lookup()
	r.extractFeatures()
	r.probe()
	r.confirm()
	r.filter()
	r.prune()
	if err := ctx.Err(); err != nil {
		return nil, r.nTests, err // a dead client abandons every test of the run
	}
	if abandoned = r.verify(); abandoned > 0 {
		// Caching a partially verified run would poison future answers;
		// skipping its bookkeeping merely forgoes an optimisation.
		return nil, abandoned, ctx.Err()
	}
	results = r.results()
	r.bookkeep()
	return results, 0, nil
}

// run is one pass of the pipeline over a batch: what its stages share and
// what each leaves for the next. Every field past the first group is
// written by one stage, named beside it.
type run struct {
	c   *Cache
	ctx context.Context
	st  []queryState
	ix  *queryIndex // the one generation every query looks up and probes

	open     []int       // lookup, then confirm: the queries no special case resolved, ascending
	credits  []hitCredit // prune: the hit credits bookkeep applies
	nTests   int         // prune: the Method-M sub-iso tests left to run
	verdicts []bool      // verify: the tests' verdicts, query-major

	// Each stage's wall time; the first four make up the GC stage.
	lookupTime, featureTime, probeTime, confirmTime, verifyTime time.Duration
}

// newRun starts a run over qs. It takes one contiguous serial block —
// query i is serial base+i, so a batch's results order like sequential
// calls would — and loads the index generation once.
func (c *Cache) newRun(ctx context.Context, qs []*graph.Graph) *run {
	n := int64(len(qs))
	base := c.serial.Add(n) - n + 1
	r := &run{c: c, ctx: ctx, st: make([]queryState, n), ix: c.index.Load()}
	for i := range r.st {
		r.st[i].q, r.st[i].stats.Serial = qs[i], base+int64(i)
	}
	return r
}

// lookup is stage 1, the exact-match lookup of §5.1 (special case 1),
// ahead of everything it makes unnecessary. One pooled pass computes each
// query's isomorphism-invariant key (graph.IsoKey, O(|V|+|E|)) and scans
// the generation's key column for a cached query of equal key and size,
// which counts only once a sub-iso test confirms it isomorphic. A hit is
// answered "with no further processing": no path enumeration, no filter,
// no probe, no containment confirmation. The stage writes ExactHit and
// the lookup's GCVerifications, and leaves the other queries in r.open.
func (r *run) lookup() {
	start, c := time.Now(), r.c
	lookup := len(r.ix.serials) > 0 && !c.opts.DisableExactMatch
	c.pool.ParallelForN(len(r.st), c.adaptiveWorkers(len(r.st)), func(i int) {
		s := &r.st[i]
		s.hash = s.q.IsoKey()
		if lookup {
			s.hit = r.ix.exact(s.hash, s.q.NumVertices(), s.q.NumEdges(), func(e *entry) bool {
				s.stats.GCVerifications++
				return iso.Contains(c.algo, s.q, e.g)
			})
		}
	})
	for i := range r.st {
		if s := &r.st[i]; s.hit != nil {
			s.state, s.answer, s.stats.ExactHit = stateExact, s.hit.answer, true
		} else {
			r.open = append(r.open, i)
		}
	}
	r.lookupTime = time.Since(start)
}

// extractFeatures is stage 2: the path features of the open queries, one
// pooled pass. The vectors are the probe input, Method M's filter input
// and the new entries' vectors; the stage's duration is FeatureTime.
func (r *run) extractFeatures() {
	if len(r.open) == 0 { // an all-hit run enumerates no path
		return
	}
	start := time.Now()
	r.c.pool.ParallelFor(len(r.open), func(k int) {
		s := &r.st[r.open[k]]
		s.vec = pathfeat.SimplePathVector(s.q, maxPathLen)
	})
	r.featureTime = time.Since(start)
}

// probe is stage 3, the GC processors' GCindex probe (§4): one pooled
// pass over the open queries against the loaded generation for candidate
// containers and containees.
func (r *run) probe() {
	if len(r.open) == 0 || len(r.ix.serials) == 0 {
		return
	}
	start, c := time.Now(), r.c
	c.pool.ParallelFor(len(r.open), func(k int) {
		s := &r.st[r.open[k]]
		s.checks, s.nSub = c.probe(r.ix, s.vec)
	})
	r.probeTime = time.Since(start)
}

// confirm is stage 4, the GC processors' containment confirmations (§4):
// real (cheap, small-vs-small) sub-iso tests of every probe candidate as
// one work list over the worker pool, query-major with containers before
// containees, so each query's confirmed lists come out in ascending
// serial order whatever the pool size. Then special case 2 (§5.1): a
// contained cached query (containing, for supergraph queries) with an
// empty answer proves q's answer empty, and q leaves the open list, so
// Method M is never consulted for it — the paper's "processing
// terminates". It adds its tests to GCVerifications and writes
// Containers, Containees and EmptyShortcut. It closes the GC stage: every
// query gets an even share of the four GC stages' times as FilterGCTime
// and its split.
func (r *run) confirm() {
	start, c := time.Now(), r.c
	nChecks := 0
	for _, qi := range r.open {
		nChecks += len(r.st[qi].checks)
	}
	if nChecks > 0 {
		checks := make([]gcCheck, 0, nChecks)
		for _, qi := range r.open {
			s := &r.st[qi]
			for j, e := range s.checks {
				checks = append(checks, gcCheck{qi: qi, e: e, sub: j < s.nSub})
			}
			s.stats.GCVerifications += len(s.checks)
			s.containers, s.containees = s.checks[:0:s.nSub], s.checks[s.nSub:s.nSub]
		}
		c.pool.ParallelForN(nChecks, c.adaptiveWorkers(nChecks), func(k int) {
			ck := &checks[k]
			pattern, target := r.st[ck.qi].q, ck.e.g
			if !ck.sub {
				pattern, target = target, pattern
			}
			ck.ok = iso.Contains(c.algo, pattern, target)
		})
		for _, ck := range checks {
			if !ck.ok {
				continue
			}
			if s := &r.st[ck.qi]; ck.sub {
				s.containers = append(s.containers, ck.e)
			} else {
				s.containees = append(s.containees, ck.e)
			}
		}
	}
	supergraph := c.m.Mode() == method.ModeSupergraph
	r.open = slices.DeleteFunc(r.open, func(qi int) bool {
		s := &r.st[qi]
		restrictors := s.containees
		if supergraph {
			restrictors = s.containers
		}
		if s.hit = findEmptyAnswer(restrictors); s.hit != nil {
			s.state, s.stats.EmptyShortcut = stateEmpty, true
		}
		return s.hit != nil
	})
	r.confirmTime = time.Since(start)
	n := time.Duration(len(r.st))
	for i := range r.st {
		s := &r.st[i]
		s.stats.Containers, s.stats.Containees = len(s.containers), len(s.containees)
		s.stats.FilterGCTime = (r.lookupTime + r.featureTime + r.probeTime + r.confirmTime) / n
		s.stats.FeatureTime, s.stats.ProbeTime = r.featureTime/n, (r.lookupTime+r.probeTime)/n
		s.stats.GCVerifyTime = r.confirmTime / n
	}
}

// filter is stage 5, Method M's filter over the queries no special case
// resolved, one pooled pass. It writes FilterMTime and CandidatesM.
func (r *run) filter() {
	c := r.c
	c.pool.ParallelFor(len(r.open), func(k int) {
		s := &r.st[r.open[k]]
		start := time.Now()
		csM := c.filterM(s.q, s.vec)
		s.stats.FilterMTime = time.Since(start)
		s.csM = c.m.Dataset().FilterLive(csM) // a DynamicMethod's filter may return removed IDs
		s.stats.CandidatesM = len(s.csM)
	})
}

// prune is stage 6, over every query in serial order. The Candidate Set
// Pruner takes Method M's candidate set and applies Eq. 1 then Eq. 2
// (roles inverted for supergraph queries). Every hit, special cases
// included, queues its credit here. The stage writes Credit,
// DirectAnswers, CandidatesFinal and SubIsoTests.
func (r *run) prune() {
	c := r.c
	supergraph := c.m.Mode() == method.ModeSupergraph
	var removed []removal // prune's output, reused query to query
	for qi := range r.st {
		s := &r.st[qi]
		// A shortcut's cached entry stands in with its own first-execution
		// candidate set and estimated cost for the never computed ones of q.
		if hit := s.hit; hit != nil {
			r.queueCredit(s, hit, true, hit.ownCS, hit.ownCost)
			continue
		}
		providers, restrictors := s.containers, s.containees
		if supergraph {
			providers, restrictors = restrictors, providers
		}
		cost := c.costs.forQuery(s.q.NumVertices())
		s.direct, s.cs, removed = prune(s.csM, providers, restrictors, cost, removed[:0])
		s.stats.DirectAnswers = len(s.direct)
		s.stats.CandidatesFinal = len(s.cs)
		s.stats.SubIsoTests = len(s.cs)
		r.nTests += len(s.cs)
		for _, id := range s.csM {
			s.ownCost += cost.of(id)
		}
		k := 0
		for _, matched := range [2][]*entry{providers, restrictors} {
			for _, e := range matched {
				r.queueCredit(s, e, false, removed[k].n, removed[k].cost)
				k++
			}
		}
	}
}

// queueCredit queues entry e's credit (§5.2) — a hit, its recency, the
// candidate-set reduction and the estimated time saving — for helping
// query s. Credits land in bookkeep, after verification, so an abandoned
// run credits nothing; deferring is safe because credits only add to
// counters the run itself never reads.
func (r *run) queueCredit(s *queryState, e *entry, special bool, removed int, saved float64) {
	r.credits = append(r.credits, hitCredit{e: e, by: s.stats.Serial, removed: int64(removed), saved: saved, special: special})
	s.stats.Credit += saved
}

// verify is stage 7, Method M's verification: the sub-iso tests of all
// pruned candidate sets run as one work list of chunks (see verifyChunk)
// over the worker pool, one worker per chunk while pool slots are free. A
// method.BatchVerifier keeps its own verification pool, so it gets one
// chunk per query and one VerifyBatch call on it. It returns how many
// tests it skipped because ctx died first.
func (r *run) verify() int {
	if r.nTests == 0 {
		return 0
	}
	c := r.c
	bv, _ := c.m.(method.BatchVerifier)
	grainOf := func(tests int) int { // a query's tests per chunk (see verifyChunk)
		if bv != nil {
			return max(1, tests)
		}
		return max(adaptiveGrain, tests/(4*c.opts.VerifyConcurrency))
	}
	n := 0
	for qi := range r.st {
		tests := len(r.st[qi].cs)
		grain := grainOf(tests)
		n += (tests + grain - 1) / grain
	}
	r.verdicts = make([]bool, r.nTests)
	chunks := make([]verifyChunk, 0, n)
	for qi, off := 0, 0; qi < len(r.st); qi++ {
		s := &r.st[qi]
		s.off = off
		off += len(s.cs)
		grain := grainOf(len(s.cs))
		for lo := 0; lo < len(s.cs); lo += grain {
			chunks = append(chunks, verifyChunk{qi: qi, lo: lo, hi: min(lo+grain, len(s.cs))})
		}
	}

	var skipped atomic.Int64
	start := time.Now()
	c.pool.ParallelFor(len(chunks), func(k int) {
		ch := chunks[k]
		if r.ctx.Err() != nil {
			skipped.Add(int64(ch.hi - ch.lo))
			return
		}
		s := &r.st[ch.qi]
		if bv != nil {
			copy(r.verdicts[s.off+ch.lo:], bv.VerifyBatch(s.q, s.cs[ch.lo:ch.hi]))
		} else {
			for j := ch.lo; j < ch.hi; j++ {
				r.verdicts[s.off+j] = c.m.Verify(s.q, s.cs[j])
			}
		}
	})
	r.verifyTime = time.Since(start)
	return int(skipped.Load())
}

// results is stage 8, one serial pass over the run's queries. It
// assembles each verified query's answer — the lifted answers and the
// verified candidates, merged — and writes AnswerSize and VerifyTime, the
// query's share of the verification stage in proportion to its
// candidate-set size. Each Result's Answer is a private copy: bookkeep
// keeps s.answer for the Window, and an exact hit's is the cached entry's.
func (r *run) results() []Result {
	out := make([]Result, len(r.st))
	for qi := range r.st {
		s := &r.st[qi]
		if s.state == stateNormal {
			var positives []int32
			for k, id := range s.cs {
				if r.verdicts[s.off+k] {
					positives = append(positives, id)
				}
			}
			s.answer = unionSorted(s.direct, positives)
			if r.nTests > 0 {
				s.stats.VerifyTime = r.verifyTime * time.Duration(len(s.cs)) / time.Duration(r.nTests)
			}
		}
		s.stats.AnswerSize = len(s.answer)
		out[qi] = Result{Answer: cloneIDs(s.answer), Stats: s.stats}
	}
	return out
}

// bookkeep is stage 9, the run's entry into the Window Manager (§6) and
// the Statistics Manager. The queued credits land first, so a window's
// replacement pass sees the hits of the query that filled it; an entry
// evicted meanwhile takes its credit out of the cache with it. Then the
// queries, their answers and their first-execution figures enter the
// Window in serial order — an exact hit is a duplicate of a cached query,
// and re-admitting it would only pollute the cache — and the run folds
// into Totals last: once Totals counts a run's queries, every one of them
// is in the Window, so a snapshot taken then holds every window they
// filled. It writes no QueryStats field.
func (r *run) bookkeep() {
	c := r.c
	c.totMu.Lock()
	for i := range r.credits {
		r.credits[i].apply()
	}
	c.totMu.Unlock()

	for qi := range r.st {
		s := &r.st[qi]
		if s.state == stateExact {
			continue
		}
		e := newEntry(s.stats.Serial, s.q, s.answer, s.vec, s.hash)
		e.filterNS = float64(s.stats.FilterGCTime.Nanoseconds())
		if s.state == stateNormal {
			e.filterNS = float64((s.stats.FilterMTime + s.stats.FilterGCTime).Nanoseconds())
			e.verifyNS = float64(s.stats.VerifyTime.Nanoseconds())
			e.ownCS, e.ownCost = len(s.csM), s.ownCost
		}
		c.addToWindow(e, s.stats.Serial)
	}

	c.totMu.Lock()
	if len(r.st) > 1 {
		c.tot.Batches++
	}
	for qi := range r.st {
		c.tot.add(&r.st[qi].stats)
	}
	c.totMu.Unlock()
}

// adaptiveGrain is the targeted number of verifications per worker:
// fan-out grows one worker per this many work items, and Method-M
// verification chunks hold at least this many tests (see verifyChunk).
const adaptiveGrain = 4

// adaptiveWorkers sizes the fan-out of a work list of n verifications:
// one worker per adaptiveGrain items, clamped to [1, VerifyConcurrency],
// so a handful of cheap tests does not wake the full pool while a large
// list gets full parallelism. Results are deterministic at any worker
// count — only scheduling changes.
func (c *Cache) adaptiveWorkers(n int) int {
	return max(1, min((n+adaptiveGrain-1)/adaptiveGrain, c.opts.VerifyConcurrency))
}
