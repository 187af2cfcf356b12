package core

import (
	"context"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// This file is the query pipeline — the one runtime of §4, Figure 2,
// ordered by cost: the exact-match lookup, then, for the queries it left
// open, Method M's filter beside the GC processors, the Candidate Set
// Pruner, the verifier, the Window. QueryBatchStream is the pipeline;
// Query runs it over one query and QueryBatch collects its deliveries.

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

	// exact is the isomorphic cached query the lookup found, or nil. It is
	// final before the filter goroutine and the probe start; both skip the
	// queries that have one.
	exact *entry

	// Method M's filter output, written by the run's filter goroutine: read
	// only after filterDone, and never for a query a special case resolved
	// (the run may return while the filter is still writing).
	csM  []int32
	mDur time.Duration

	// checks is the probe's candidate list, checks[:nSub] potential
	// containers of q and the rest potential containees. The confirmed ones
	// are compacted in place into containers and containees.
	checks                 []*entry
	nSub                   int
	containers, containees []*entry

	state      int
	direct, cs []int32      // prune's output: lifted answers, candidates left to verify
	off        int          // offset of cs's verdicts in the run's flattened verdict list
	pending    atomic.Int32 // unverified candidates; the worker that zeroes it completes the query
	ownCost    float64      // Σ c(q, G) over csM
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
// work list: query qi against its candidates cs[lo:hi]. Workers claim, poll
// for cancellation and report completion once per chunk, not once per
// sub-iso test. A query's chunks hold max(adaptiveGrain, |cs| /
// (4·VerifyConcurrency)) tests: a large candidate set is cut into about
// four chunks per worker, enough to even out the workers' loads, because
// smaller chunks make the claims, the pending counter and the verdict
// cache lines the workers share cost more than tests that take a fraction
// of a microsecond.
type verifyChunk struct {
	qi, lo, hi int
}

// Query processes q through GraphCache: the exact-match lookup, then — on
// a miss — GC filtering beside Method M filtering, the empty-answer
// shortcut, candidate-set pruning, verification, and window/cache
// bookkeeping — the pipeline over one query. It is safe for any
// number of concurrent callers; each caller's answer is exactly the
// wrapped method's answer for its query, whatever the interleaving.
func (c *Cache) Query(q *graph.Graph) Result {
	var res Result
	// Never cancelled, so nothing is abandoned and there is no error.
	c.QueryBatchStream(context.TODO(), []*graph.Graph{q}, func(_ int, r Result) { res = r })
	return res
}

// QueryBatch processes a batch of queries as one run of the pipeline and
// returns the results aligned to qs. Each query receives exactly the
// answer a standalone Query call would return — the pruning rules are
// sound, so answers never depend on cache contents — id-ordered and
// deterministic at any pool size or caller interleaving. It is safe to
// call concurrently with Query and with other batches.
func (c *Cache) QueryBatch(qs []*graph.Graph) []Result {
	if len(qs) == 0 {
		return nil
	}
	results := make([]Result, len(qs))
	// Never cancelled, so nothing is abandoned and there is no error.
	c.QueryBatchStream(context.TODO(), qs, func(i int, r Result) { results[i] = r })
	return results
}

// QueryBatchStream is the query pipeline: it processes qs as one run and
// hands each Result to deliver the moment it is complete. deliver is
// called exactly once per query — index i aligns with qs — and may be
// called concurrently from verification workers, so it must be safe for
// concurrent use. Queries resolved without verification (exact-match
// hits, empty-answer shortcuts, fully pruned candidate sets) are
// delivered before any sub-iso test runs, so the first results of a mixed
// batch arrive while the heavy tail is still verifying.
//
// Every stage runs once per run, cheapest first, and each later stage
// only over the queries the earlier ones left unresolved:
//
//   - the exact-match lookup (§5.1, special case 1), one pooled pass: each
//     query's isomorphism-invariant key (graph.IsoKey, O(|V|+|E|)), then
//     a scan of the once-loaded index generation's key column for a cached
//     query of equal key and size, confirmed isomorphic by a sub-iso test
//     before it counts. A hit is answered "with no further processing": no
//     path enumeration, no filter, no probe, no containment confirmation.
//     A run in which every query hit starts no filter goroutine and never
//     touches Method M;
//   - feature extraction over the queries the lookup left open, one pooled
//     pass; the vectors are Method M's filter input, the probe input and
//     the new entries' vectors;
//   - for the queries still open, Method M's filter on its own goroutine,
//     beside the GC processors (§4, Figure 2): the loaded generation is
//     probed per query, and the containment confirmations of all open
//     queries flatten into one work list over the shared worker pool;
//   - the empty-answer shortcut (special case 2), then the Candidate Set
//     Pruner (Eq. 1 then Eq. 2; inverted roles for supergraph queries,
//     §5.1). A run whose open queries were all proven empty returns without
//     waiting for the filter — the paper's "processing terminates" — and
//     its output is discarded;
//   - verification: the sub-iso tests of all pruned candidate sets as one
//     flattened work list, the worker landing a query's last verdict
//     assembling and delivering its answer;
//   - bookkeeping: one locked pass that credits the hit entries and folds
//     the run into the lifetime totals, then the non-duplicate queries into
//     the Window in serial order (the Window Manager fires exactly as under
//     sequential calls).
//
// Each delivered Result carries the query's complete QueryStats — the
// only per-query record — so whoever delivers the answer can fold it into
// its metrics before the caller sees it. Timing statistics are per stage:
// the GC stage's wall time and its feature/probe/confirmation split are
// divided evenly across the run's queries, so sums stay meaningful and a
// lone query's values are exact; the VerifyTime of a delivered Result is
// the time from the start of the verification stage to that query's last
// verdict. Totals, which sum over queries, take VerifyTime instead as the
// query's share of the stage, in proportion to its candidate-set size.
//
// A run of one query is not a batch to the outside: Totals.Batches counts
// runs of two or more.
//
// ctx cancellation is the client-gone signal: once ctx.Err() is
// non-nil, unstarted verification work is abandoned (a query whose
// tests were already all in flight may still complete and be
// delivered; a partially verified query never is), and a run that
// abandoned any leaves no trace in the cache — no window insertions, no
// hit credits, no totals. The number of abandoned sub-iso tests and, when
// there were any, ctx's error are returned. The cache only ever polls
// ctx.Err(), never waits on ctx.Done(), so composite contexts without a
// Done channel work.
func (c *Cache) QueryBatchStream(ctx context.Context, qs []*graph.Graph, deliver func(i int, r Result)) (abandoned int, err error) {
	n := len(qs)
	if n == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c.enterQuery()
	defer c.exitQuery()

	// One contiguous serial block for the run: query i is serial base+i,
	// so a batch's results order like sequential calls would.
	base := c.serial.Add(int64(n)) - int64(n) + 1
	st := make([]queryState, n)
	for i := range st {
		st[i].q = qs[i]
		st[i].stats.Serial = base + int64(i)
	}

	// All queries of a run look up and probe the same index generation.
	ix := c.index.Load()
	lookup := len(ix.serials) > 0 && !c.opts.DisableExactMatch

	// Special case 1 (§5.1), ahead of everything it makes unnecessary:
	// every query gets its isomorphism-invariant key, which an isomorphic
	// cached query shares, and the lookup scans the key column for a match
	// that one sub-iso test confirms.
	gcStart := time.Now()
	c.pool.ParallelForN(n, c.adaptiveWorkers(n), func(i int) {
		s := &st[i]
		s.hash = s.q.IsoKey()
		if lookup {
			s.exact = ix.exact(s.hash, s.q.NumVertices(), s.q.NumEdges(), func(e *entry) bool {
				s.stats.GCVerifications++
				return iso.Contains(c.algo, s.q, e.g)
			})
		}
	})
	open := n
	for i := range st {
		if st[i].exact != nil {
			open--
		}
	}

	// Path features only for the queries the lookup left open: Method M's
	// filter input, the probe input and the new entries' vectors.
	featStart := time.Now()
	if open > 0 {
		c.pool.ParallelFor(n, func(i int) {
			if s := &st[i]; s.exact == nil {
				s.vec = pathfeat.SimplePathVector(s.q, c.opts.MaxPathLen)
			}
		})
	}
	probeStart := time.Now()

	// Method M's filter and the GC processors run side by side, over the
	// open queries only. The filter goroutine holds its own inflight
	// reference: a run whose open queries are all proven empty returns
	// without draining filterDone, and the filter must not still be reading
	// the method's index when a mutation starts rewriting it.
	var filterDone chan struct{}
	nChecks := 0
	if open > 0 {
		filterDone = make(chan struct{})
		c.retainQuery()
		go func() {
			defer c.exitQuery()
			defer close(filterDone)
			c.pool.ParallelFor(n, func(i int) {
				s := &st[i]
				if s.exact != nil {
					return
				}
				start := time.Now()
				s.csM = c.filterM(s.q, s.vec)
				s.mDur = time.Since(start)
			})
		}()
		if len(ix.serials) > 0 {
			c.pool.ParallelFor(n, func(i int) {
				if s := &st[i]; s.exact == nil {
					s.checks, s.nSub = c.probe(ix, s.vec)
				}
			})
			for i := range st {
				nChecks += len(st[i].checks)
			}
		}
	}
	gcvStart := time.Now()

	// Containment confirmations: real (cheap, small-vs-small) sub-iso
	// tests, query-major with containers before containees, so each
	// query's confirmed lists come out in ascending serial order whatever
	// the pool size.
	if nChecks > 0 {
		checks := make([]gcCheck, 0, nChecks)
		for qi := range st {
			s := &st[qi]
			for j, e := range s.checks {
				checks = append(checks, gcCheck{qi: qi, e: e, sub: j < s.nSub})
			}
			s.stats.GCVerifications += len(s.checks)
			s.containers, s.containees = s.checks[:0:s.nSub], s.checks[s.nSub:s.nSub]
		}
		c.pool.ParallelForN(nChecks, c.adaptiveWorkers(nChecks), func(k int) {
			ck := &checks[k]
			pattern, target := st[ck.qi].q, ck.e.g
			if !ck.sub {
				pattern, target = target, pattern
			}
			ck.ok = iso.Contains(c.algo, pattern, target)
		})
		for _, ck := range checks {
			if !ck.ok {
				continue
			}
			if s := &st[ck.qi]; ck.sub {
				s.containers = append(s.containers, ck.e)
			} else {
				s.containees = append(s.containees, ck.e)
			}
		}
	}
	// The GC stage and its split, as each query's even share of the run's.
	gcEnd, perQuery := time.Now(), time.Duration(n)
	gcShare := gcEnd.Sub(gcStart) / perQuery
	featShare := probeStart.Sub(featStart) / perQuery
	probeShare := (featStart.Sub(gcStart) + gcvStart.Sub(probeStart)) / perQuery
	gcvShare := gcEnd.Sub(gcvStart) / perQuery

	// Hit credits (§5.2) — hit counts, recency, candidate-set reduction
	// and estimated time saving — queue up and land after verification, so
	// an abandoned run credits nothing. Deferring is safe: credits only add
	// to counters the run itself never reads.
	var credits []hitCredit
	queueCredit := func(s *queryState, e *entry, special bool, removed int, saved float64) {
		credits = append(credits, hitCredit{e: e, by: s.stats.Serial, removed: int64(removed), saved: saved, special: special})
		s.stats.Credit += saved
	}

	supergraph := c.m.Mode() == method.ModeSupergraph
	nTests := 0
	var removed []removal // prune's output, reused query to query
	for qi := range st {
		s := &st[qi]
		s.stats.FilterGCTime = gcShare
		s.stats.FeatureTime, s.stats.ProbeTime, s.stats.GCVerifyTime = featShare, probeShare, gcvShare
		s.stats.Containers, s.stats.Containees = len(s.containers), len(s.containees)
		providers, restrictors := s.containers, s.containees
		if supergraph {
			providers, restrictors = restrictors, providers
		}

		// Special case 1 (§5.1): the isomorphic cached query the lookup
		// found answers q with no further processing. Special case 2: a
		// contained cached query (containing, for supergraph queries) with
		// an empty answer proves q's answer empty. Either way Method M is
		// never consulted, and the cached entry's own first-execution
		// candidate set and estimated cost stand in for the (never
		// computed) ones of the shortcut query.
		hit := s.exact
		if hit != nil {
			s.state, s.answer = stateExact, hit.answer
			s.stats.ExactHit, s.stats.AnswerSize = true, len(hit.answer)
		} else if hit = findEmptyAnswer(restrictors); hit != nil {
			s.state, s.stats.EmptyShortcut = stateEmpty, true
		}
		if hit != nil {
			queueCredit(s, hit, true, hit.ownCS, hit.ownCost)
			continue
		}

		// Method M's candidate set from the parallel filter stage, with
		// removed-graph IDs masked out: DynamicMethod lets a filter keep
		// returning them (a FilterLive no-op until the first mutation).
		<-filterDone
		s.csM = c.m.Dataset().FilterLive(s.csM)
		s.stats.FilterMTime = s.mDur
		s.stats.CandidatesM = len(s.csM)

		cost := c.costs.forQuery(s.q.NumVertices())
		s.direct, s.cs, removed = prune(s.csM, providers, restrictors, cost, removed[:0])
		s.stats.DirectAnswers = len(s.direct)
		s.stats.CandidatesFinal = len(s.cs)
		s.stats.SubIsoTests = len(s.cs)
		nTests += len(s.cs)

		for _, id := range s.csM {
			s.ownCost += cost.of(id)
		}
		k := 0
		for _, matched := range [2][]*entry{providers, restrictors} {
			for _, e := range matched {
				queueCredit(s, e, false, removed[k].n, removed[k].cost)
				k++
			}
		}
	}

	// A dead client abandons every test of the run.
	if err := ctx.Err(); err != nil {
		return nTests, err
	}
	verdicts := make([]bool, nTests)
	chunks := make([]verifyChunk, 0, nTests/adaptiveGrain+min(n, nTests))
	for qi, off := 0, 0; qi < n; qi++ {
		s := &st[qi]
		s.off = off
		off += len(s.cs)
		s.pending.Store(int32(len(s.cs)))
		grain := max(adaptiveGrain, len(s.cs)/(4*c.opts.VerifyConcurrency))
		for lo := 0; lo < len(s.cs); lo += grain {
			chunks = append(chunks, verifyChunk{qi: qi, lo: lo, hi: min(lo+grain, len(s.cs))})
		}
	}
	// complete assembles query qi's answer once all its verdicts are in
	// and delivers it. The delivered Result is a private copy: bookkeeping
	// keeps s.answer for the Window.
	complete := func(qi int, verifyTime time.Duration) {
		s := &st[qi]
		if s.state == stateNormal {
			var positives []int32
			for k, id := range s.cs {
				if verdicts[s.off+k] {
					positives = append(positives, id)
				}
			}
			s.answer = unionSorted(s.direct, positives)
			s.stats.AnswerSize = len(s.answer)
			s.stats.VerifyTime = verifyTime
		}
		deliver(qi, Result{Answer: cloneIDs(s.answer), Stats: s.stats})
	}
	// The run's cheap resolutions are final: flush every query that needs
	// no verification before dispatching any sub-iso work, so a client's
	// first results never wait on the batch's heavy tail.
	for qi := range st {
		if len(st[qi].cs) == 0 {
			complete(qi, 0)
		}
	}

	var vDur time.Duration
	if nTests > 0 {
		vDur, abandoned = c.verifyChunks(ctx, st, chunks, verdicts, complete)
	}
	if abandoned > 0 {
		// Cut short: everything delivered so far was fully verified, but
		// the run as a whole never happened as far as the cache is
		// concerned — no credits, no window entries, no totals. Caching a
		// partially verified run would poison future answers; skipping
		// bookkeeping merely forgoes an optimisation. A cancel that lands
		// after the last verdict skipped nothing, and the run is kept: the
		// coalescer's callers all leave the moment their results are
		// delivered, which must not cost the batch its place in the window.
		return abandoned, ctx.Err()
	}

	// Bookkeeping. From here on a query's VerifyTime is its share of the
	// stage.
	if nTests > 0 {
		for i := range st {
			st[i].stats.VerifyTime = vDur * time.Duration(len(st[i].cs)) / time.Duration(nTests)
		}
	}
	// Credits land before a query can trigger window processing, so a
	// window's replacement pass sees the hits of the query that filled it.
	// An entry evicted meanwhile takes its credit out of the cache with it.
	c.totMu.Lock()
	for i := range credits {
		credits[i].apply()
	}
	c.totMu.Unlock()

	// The queries, their answers and their first-execution figures enter
	// the Window in serial order. An exact hit is a duplicate of a cached
	// query; re-admitting it would only pollute the cache.
	for i := range st {
		s := &st[i]
		if s.state == stateExact {
			continue
		}
		e := newEntry(s.stats.Serial, s.q, s.answer, s.vec, s.hash)
		e.filterNS = float64(gcShare.Nanoseconds())
		if s.state == stateNormal {
			e.filterNS = float64((s.stats.FilterMTime + gcShare).Nanoseconds())
			e.verifyNS = float64(s.stats.VerifyTime.Nanoseconds())
			e.ownCS, e.ownCost = len(s.csM), s.ownCost
		}
		c.addToWindow(e, s.stats.Serial)
	}

	// The totals fold last: once Totals counts a run's queries, every one
	// of them is in the Window, so a snapshot taken then holds every
	// window they filled.
	c.totMu.Lock()
	if n > 1 {
		c.tot.Batches++
	}
	for i := range st {
		c.tot.add(&st[i].stats)
	}
	c.totMu.Unlock()
	return 0, nil
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

// verifyChunks runs a run's flattened Method-M work list through the
// worker pool — one worker per chunk while pool slots are free — calling
// complete for each query as its last verdict lands. It returns the
// stage's wall time and how many tests it skipped because ctx died first.
func (c *Cache) verifyChunks(ctx context.Context, st []queryState, chunks []verifyChunk, verdicts []bool,
	complete func(qi int, verifyTime time.Duration)) (time.Duration, int) {
	var skipped atomic.Int64
	vStart := time.Now()
	if bv, ok := c.m.(method.BatchVerifier); ok {
		// Methods with internal verification parallelism keep their own
		// pool: one VerifyBatch per query, fanned over the run.
		c.pool.ParallelFor(len(st), func(qi int) {
			s := &st[qi]
			if len(s.cs) == 0 {
				return
			}
			if ctx.Err() != nil {
				skipped.Add(int64(len(s.cs)))
				return
			}
			copy(verdicts[s.off:], bv.VerifyBatch(s.q, s.cs))
			complete(qi, time.Since(vStart))
		})
	} else {
		// The worker that brings a query's pending count to zero has a
		// happens-before edge on every sibling verdict and completes the
		// query. Skipped chunks never decrement, so a query touched by
		// cancellation is never delivered partially verified.
		c.pool.ParallelFor(len(chunks), func(k int) {
			ch := chunks[k]
			if ctx.Err() != nil {
				skipped.Add(int64(ch.hi - ch.lo))
				return
			}
			s := &st[ch.qi]
			for j := ch.lo; j < ch.hi; j++ {
				verdicts[s.off+j] = c.m.Verify(s.q, s.cs[j])
			}
			if s.pending.Add(int32(ch.lo-ch.hi)) == 0 {
				complete(ch.qi, time.Since(vStart))
			}
		})
	}
	return time.Since(vStart), int(skipped.Load())
}
