package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// batchCheck is one GC containment confirmation in a batch's flattened
// verification work list: query qi against cached entry e, testing q ⊆ e.g
// when sub (e is a candidate container) and e.g ⊆ q otherwise.
type batchCheck struct {
	qi  int
	e   *entry
	sub bool
}

// verifyPair is one Method-M sub-iso test in a batch's flattened
// verification work list: query qi against dataset graph id.
type verifyPair struct {
	qi int
	id int32
}

// QueryBatch processes a batch of queries through GraphCache as one unit.
// Each query receives exactly the answer a standalone Query call would
// return — the pruning rules are sound, so answers never depend on cache
// contents — with results aligned to qs, id-ordered and deterministic at
// any shard count, pool size or caller interleaving. It is safe to call
// concurrently with Query and with other QueryBatch calls.
//
// What batching amortises, relative to len(qs) sequential Query calls:
//
//   - GCindex dispatch: every shard's index snapshot is loaded once per
//     batch and probed in one pass over the batch, instead of one
//     snapshot load and probe fan-out per query;
//   - verification fan-out: the GC containment confirmations of all
//     queries flatten into one work list over the shared worker pool, and
//     so do the Method-M sub-iso tests of all pruned candidate sets —
//     one pool dispatch per stage per batch, not per query;
//   - statistics: hit credits of the whole batch are folded into a
//     single CreditBatch per touched shard, and the lifetime totals into
//     a single locked accumulation.
//
// Method M filtering for the whole batch runs concurrently with the GC
// stage, as on the single-query path (§4, Figure 2). Window bookkeeping
// is unchanged: non-duplicate queries enter the Window in serial order and
// the Window Manager fires exactly as it would under sequential calls.
//
// Per-query timing statistics are stage-level apportionments — the GC
// stage's wall time is split evenly across the batch and the verification
// stage's proportionally to each query's candidate-set size — so their
// sums remain meaningful in Totals while individual values are estimates.
func (c *Cache) QueryBatch(qs []*graph.Graph) []Result {
	results, _, _ := c.queryBatch(nil, qs, nil)
	return results
}

// QueryBatchStream processes a batch like QueryBatch but delivers each
// Result the moment it is complete, instead of returning them all at
// the end. deliver is called exactly once per query — index i aligns
// with qs — and may be called concurrently from verification workers,
// so it must be safe for concurrent use. Queries resolved without
// verification (exact-match hits, empty-answer shortcuts, fully pruned
// candidate sets) are delivered before any sub-iso test runs, so the
// first results of a mixed batch arrive while the heavy tail is still
// verifying. Delivered answers are identical to the ones QueryBatch
// would return.
//
// ctx cancellation is the client-gone signal: once ctx.Err() is
// non-nil, unstarted verification work is abandoned (a query whose
// tests were already all in flight may still complete and be
// delivered; a partially verified query never is), and a batch that
// abandoned any leaves no trace in the cache — no window insertions, no
// hit credits, no totals. The number of abandoned sub-iso tests and, when
// there were any, ctx's error are returned. The cache only ever polls
// ctx.Err(), never waits on ctx.Done(), so composite contexts without a
// Done channel work.
func (c *Cache) QueryBatchStream(ctx context.Context, qs []*graph.Graph, deliver func(i int, r Result)) (abandoned int, err error) {
	_, abandoned, err = c.queryBatch(ctx, qs, deliver)
	return abandoned, err
}

// queryBatch is the shared batch pipeline behind QueryBatch (ctx and
// deliver nil: buffer everything, never cancel) and QueryBatchStream.
func (c *Cache) queryBatch(ctx context.Context, qs []*graph.Graph, deliver func(i int, r Result)) ([]Result, int, error) {
	n := len(qs)
	if n == 0 {
		return nil, 0, nil
	}
	// cancelled is polled, never waited on: ctx may be a composite over
	// many waiters whose Done channel is unavailable, but Err is exact.
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	if cancelled() {
		return nil, 0, ctx.Err()
	}
	if n == 1 {
		r := c.Query(qs[0])
		if deliver != nil {
			deliver(0, r)
		}
		return []Result{r}, 0, nil
	}
	c.enterQuery()
	defer c.exitQuery()

	// One contiguous serial block for the batch: query i is serial base+i,
	// so batch results order like sequential calls would.
	base := c.serial.Add(int64(n)) - int64(n) + 1
	results := make([]Result, n)
	for i := range results {
		results[i].Stats.Serial = base + int64(i)
	}

	// Telemetry: when an Observer is installed the batch times its GC
	// sub-stages (shared wall time, split evenly like FilterGCTime) and
	// tracks per-query hit credit, emitting one observation per query at
	// the end. obs == nil adds no clock reads beyond the existing ones.
	obs := c.observer()
	var featShare, probeShare, gcvShare int64
	creditPer := make([]float64, n)

	// GC filtering stage. Feature extraction runs once per query, pooled;
	// the vectors double as Method M's filter input, the probe input, the
	// new entries' memoised vectors and their shard-routing hashes,
	// exactly as on the single path.
	gcStart := time.Now()
	vecs := make([]pathfeat.Vector, n)
	hashes := make([]uint64, n)
	c.pool.ParallelFor(n, func(i int) {
		vecs[i] = pathfeat.SimplePathVector(qs[i], c.opts.MaxPathLen)
		hashes[i] = pathfeat.HashVector(vecs[i])
	})

	// Method M filtering for the whole batch, dispatched concurrently with
	// the rest of the GC stage as one pooled fan-out. On special-case hits
	// the filter's output is discarded, as in the paper.
	csM := make([][]int32, n)
	mDur := make([]time.Duration, n)
	var filterWG sync.WaitGroup
	filterWG.Add(1)
	go func() {
		defer filterWG.Done()
		c.pool.ParallelFor(n, func(i int) {
			start := time.Now()
			csM[i] = c.filterM(qs[i], vecs[i])
			mDur[i] = time.Since(start)
		})
	}()
	var probeStart time.Time
	if obs != nil {
		probeStart = time.Now()
		featShare = probeStart.Sub(gcStart).Nanoseconds() / int64(n)
	}

	// Load every shard's index snapshot once for the whole batch — all
	// queries probe the same generation — and probe shard × query in one
	// pooled pass.
	nShards := len(c.shards)
	ixs := make([]*queryIndex, nShards)
	total := 0
	for si, sh := range c.shards {
		ixs[si] = sh.index.Load()
		total += ixs[si].size()
	}

	containers := make([][]*entry, n)
	containees := make([][]*entry, n)
	checkCount := make([]int, n)
	var checks []batchCheck
	if total > 0 {
		// One pooled probe per query against the batch-loaded snapshots:
		// each worker reuses the same probeScratch path as the single-query
		// probe (per-shard candidate buffers, slot counters, k-way merge),
		// so the batch probe allocates only the per-query merged entry
		// lists. The flattened confirmation list is query-major, containers
		// before containees — the order Query checks them in.
		type mergedProbe struct {
			checks []*entry
			nSub   int
		}
		merged := make([]mergedProbe, n)
		c.pool.ParallelFor(n, func(qi int) {
			ck, nSub := c.probeSnapshots(ixs, vecs[qi])
			merged[qi] = mergedProbe{checks: ck, nSub: nSub}
		})
		for qi := 0; qi < n; qi++ {
			for i, e := range merged[qi].checks {
				checks = append(checks, batchCheck{qi: qi, e: e, sub: i < merged[qi].nSub})
			}
		}
	}

	var gcvStart time.Time
	if obs != nil {
		gcvStart = time.Now()
		probeShare = gcvStart.Sub(probeStart).Nanoseconds() / int64(n)
	}

	// Containment confirmations for the whole batch: one flattened
	// dispatch through the shared pool.
	if len(checks) > 0 {
		verdicts := make([]bool, len(checks))
		workers := c.adaptiveWorkers(&c.gcEWMA, len(checks))
		c.pool.ParallelForN(len(checks), workers, func(i int) {
			ck := checks[i]
			if ck.sub {
				verdicts[i] = iso.Contains(c.algo, qs[ck.qi], ck.e.g)
			} else {
				verdicts[i] = iso.Contains(c.algo, ck.e.g, qs[ck.qi])
			}
		})
		for i, ok := range verdicts {
			ck := checks[i]
			checkCount[ck.qi]++
			if !ok {
				continue
			}
			if ck.sub {
				containers[ck.qi] = append(containers[ck.qi], ck.e)
			} else {
				containees[ck.qi] = append(containees[ck.qi], ck.e)
			}
		}
	}
	if obs != nil {
		gcvShare = time.Since(gcvStart).Nanoseconds() / int64(n)
	}
	// The EWMA tracks per-query candidate-set lengths, so feed it one
	// observation per query, not one per batch.
	for qi := 0; qi < n; qi++ {
		c.gcEWMA.observe(float64(checkCount[qi]))
	}
	gcShare := time.Since(gcStart) / time.Duration(n)

	// Per-query special-case resolution. Hit credits are not applied yet:
	// they accumulate into per-shard op lists and land in one CreditBatch
	// per shard at the end of the batch. Deferring is safe — credit ops
	// only increment or max columns the batch itself never reads.
	const (
		stateNormal = iota
		stateExact
		stateEmpty
	)
	states := make([]int, n)
	shardOps := make([][]StatOp, nShards)
	totalSaved := 0.0
	emitSpecial := func(e *entry, serial int64) {
		st := c.shardFor(e).stats
		ownCS := st.Get(e.serial, ColOwnCS)
		saved := st.Get(e.serial, ColOwnCost)
		si := c.shardIndexOf(e)
		shardOps[si] = append(shardOps[si],
			StatOp{Key: e.serial, Col: ColHits, Val: 1},
			StatOp{Key: e.serial, Col: ColSpecialHits, Val: 1},
			StatOp{Key: e.serial, Col: ColLastHit, Val: float64(serial), Max: true},
			StatOp{Key: e.serial, Col: ColCSReduction, Val: ownCS},
			StatOp{Key: e.serial, Col: ColTimeSaving, Val: saved})
		totalSaved += saved
		creditPer[serial-base] += saved
	}
	for qi := range qs {
		serial := base + int64(qi)
		st := &results[qi].Stats
		st.FilterGCTime = gcShare
		st.GCVerifications = checkCount[qi]
		st.Containers, st.Containees = len(containers[qi]), len(containees[qi])

		if !c.opts.DisableExactMatch {
			if e := findExact(qs[qi].NumVertices(), qs[qi].NumEdges(), containers[qi], containees[qi]); e != nil {
				emitSpecial(e, serial)
				st.ExactHit = true
				st.AnswerSize = len(e.answer)
				results[qi].Answer = cloneIDs(e.answer)
				states[qi] = stateExact
				continue
			}
		}
		emptyCandidates := containees[qi]
		if c.m.Mode() == method.ModeSupergraph {
			emptyCandidates = containers[qi]
		}
		if e := findEmptyAnswer(emptyCandidates); e != nil {
			emitSpecial(e, serial)
			st.EmptyShortcut = true
			states[qi] = stateEmpty
		}
	}

	// Candidate-set pruning per remaining query, then one flattened
	// Method-M verification dispatch for the whole batch. Removed-graph
	// IDs are masked out of the candidate sets, as on the single path.
	filterWG.Wait()
	if ds := c.m.Dataset(); ds.Mutated() {
		for i := range csM {
			csM[i] = ds.FilterLive(csM[i])
		}
	}
	type prunedQuery struct {
		direct, cs []int32
		off        int // offset of cs in the flattened pair list
	}
	pruned := make([]prunedQuery, n)
	var pairs []verifyPair
	ownCost := make([]float64, n)
	emitMatch := func(serial int64, e *entry, removed, csM []int32, costs []float64) {
		si := c.shardIndexOf(e)
		shardOps[si] = append(shardOps[si],
			StatOp{Key: e.serial, Col: ColHits, Val: 1},
			StatOp{Key: e.serial, Col: ColLastHit, Val: float64(serial), Max: true})
		if len(removed) == 0 {
			return
		}
		saved := sumCostsOf(removed, csM, costs)
		shardOps[si] = append(shardOps[si],
			StatOp{Key: e.serial, Col: ColCSReduction, Val: float64(len(removed))},
			StatOp{Key: e.serial, Col: ColTimeSaving, Val: saved})
		totalSaved += saved
		creditPer[serial-base] += saved
	}
	for qi := range qs {
		if states[qi] != stateNormal {
			continue
		}
		serial := base + int64(qi)
		st := &results[qi].Stats
		st.FilterMTime = mDur[qi]
		st.CandidatesM = len(csM[qi])

		providers, restrictors := containers[qi], containees[qi]
		if c.m.Mode() == method.ModeSupergraph {
			providers, restrictors = containees[qi], containers[qi]
		}
		direct, cs, credit := prune(csM[qi], providers, restrictors)
		st.DirectAnswers = len(direct)
		st.CandidatesFinal = len(cs)
		st.SubIsoTests = len(cs)
		pruned[qi] = prunedQuery{direct: direct, cs: cs, off: len(pairs)}
		for _, id := range cs {
			pairs = append(pairs, verifyPair{qi: qi, id: id})
		}
		costs := c.candidateCosts(qs[qi], csM[qi])
		ownCost[qi] = sumFloats(costs)
		for _, e := range providers {
			emitMatch(serial, e, credit[e.serial], csM[qi], costs)
		}
		for _, e := range restrictors {
			emitMatch(serial, e, credit[e.serial], csM[qi], costs)
		}
	}

	// The batch's cheap resolutions are now final: in streaming mode,
	// flush every query that needs no verification before dispatching
	// any sub-iso work, so the client's first results never wait on the
	// batch's heavy tail. A dead client abandons the whole pair list.
	if cancelled() {
		return nil, len(pairs), ctx.Err()
	}
	if deliver != nil {
		for qi := range qs {
			if states[qi] != stateNormal {
				deliver(qi, results[qi])
				continue
			}
			if len(pruned[qi].cs) == 0 {
				r := results[qi]
				r.Answer = cloneIDs(unionSorted(pruned[qi].direct, nil))
				r.Stats.AnswerSize = len(r.Answer)
				deliver(qi, r)
			}
		}
	}

	var vDur time.Duration
	var skipped atomic.Int64
	verdicts := make([]bool, len(pairs))
	if len(pairs) > 0 {
		vStart := time.Now()
		// deliverVerified flushes query qi once its last verdict lands.
		// Answer assembly here mirrors the buffered loop below exactly;
		// the Result is a private copy, so the buffered loop's later
		// writes to results[qi] never race with a delivered value.
		deliverVerified := func(qi int) {
			p := pruned[qi]
			var positives []int32
			for k, id := range p.cs {
				if verdicts[p.off+k] {
					positives = append(positives, id)
				}
			}
			r := results[qi]
			r.Answer = cloneIDs(unionSorted(p.direct, positives))
			r.Stats.AnswerSize = len(r.Answer)
			r.Stats.VerifyTime = time.Since(vStart)
			deliver(qi, r)
		}
		if bv, ok := c.m.(method.BatchVerifier); ok {
			// Methods with internal verification parallelism keep their
			// own pool: one VerifyBatch per query, fanned over the batch.
			c.pool.ParallelFor(n, func(qi int) {
				p := pruned[qi]
				if states[qi] != stateNormal || len(p.cs) == 0 {
					return
				}
				if cancelled() {
					skipped.Add(int64(len(p.cs)))
					return
				}
				copy(verdicts[p.off:p.off+len(p.cs)], bv.VerifyBatch(qs[qi], p.cs))
				if deliver != nil {
					deliverVerified(qi)
				}
			})
		} else {
			workers := c.adaptiveWorkers(&c.verifyEWMA, len(pairs))
			// pending counts each query's unfinished pairs; the worker
			// that decrements it to zero has a happens-before edge on
			// every sibling verdict and delivers the completed answer.
			// Skipped pairs never decrement, so a query touched by
			// cancellation can never be delivered partially verified.
			var pending []atomic.Int32
			if deliver != nil {
				pending = make([]atomic.Int32, n)
				for qi := range pruned {
					pending[qi].Store(int32(len(pruned[qi].cs)))
				}
			}
			c.pool.ParallelForN(len(pairs), workers, func(k int) {
				if cancelled() {
					skipped.Add(1)
					return
				}
				verdicts[k] = c.m.Verify(qs[pairs[k].qi], pairs[k].id)
				if deliver != nil {
					if qi := pairs[k].qi; pending[qi].Add(-1) == 0 {
						deliverVerified(qi)
					}
				}
			})
		}
		vDur = time.Since(vStart)
	}
	if n := int(skipped.Load()); n > 0 {
		// Cut short: everything delivered so far was fully verified, but
		// the batch as a whole never happened as far as the cache is
		// concerned — no credits, no window entries, no totals. Caching
		// a partially verified batch would poison future answers;
		// skipping bookkeeping merely forgoes an optimisation. A cancel
		// that lands after the last verdict skipped nothing, and the batch
		// is kept: the coalescer's callers all leave the moment their
		// results are delivered, which must not cost the batch its place
		// in the window.
		return nil, n, ctx.Err()
	}

	answers := make([][]int32, n)
	for qi := range qs {
		if states[qi] != stateNormal {
			continue
		}
		c.verifyEWMA.observe(float64(len(pruned[qi].cs)))
		p := pruned[qi]
		var positives []int32
		for k, id := range p.cs {
			if verdicts[p.off+k] {
				positives = append(positives, id)
			}
		}
		answer := unionSorted(p.direct, positives)
		st := &results[qi].Stats
		st.AnswerSize = len(answer)
		if len(pairs) > 0 {
			st.VerifyTime = vDur * time.Duration(len(p.cs)) / time.Duration(len(pairs))
		}
		answers[qi] = answer
		results[qi].Answer = cloneIDs(answer)
	}

	// Statistics: one CreditBatch round-trip per touched shard for the
	// whole batch, one savings fold, one totals accumulation.
	for si, ops := range shardOps {
		if len(ops) > 0 {
			c.shards[si].stats.CreditBatch(ops)
		}
	}
	c.addSavings(totalSaved)

	// Window bookkeeping, in serial order — duplicates (exact hits) skip
	// the Window as on the single path, and the Window Manager triggers
	// mid-batch exactly when a segment append fills the global window.
	for qi := range qs {
		serial := base + int64(qi)
		st := results[qi].Stats
		switch states[qi] {
		case stateExact:
			continue
		case stateEmpty:
			c.addToWindow(&windowEntry{
				e:        &entry{serial: serial, g: qs[qi], vec: vecs[qi], vecOK: true, hash: hashes[qi], hashed: true},
				filterNS: float64(st.FilterGCTime.Nanoseconds()),
			}, serial)
		default:
			c.addToWindow(&windowEntry{
				e:        &entry{serial: serial, g: qs[qi], answer: answers[qi], vec: vecs[qi], vecOK: true, hash: hashes[qi], hashed: true},
				filterNS: float64((st.FilterMTime + st.FilterGCTime).Nanoseconds()),
				verifyNS: float64(st.VerifyTime.Nanoseconds()),
				ownCS:    len(csM[qi]),
				ownCost:  ownCost[qi],
			}, serial)
		}
	}

	c.accumulateBatch(results)
	if obs != nil {
		for qi := range results {
			emitQuery(obs, &results[qi].Stats, featShare, probeShare, gcvShare, creditPer[qi], true)
		}
	}
	return results, 0, nil
}

// accumulateBatch folds a whole batch's per-query stats into the lifetime
// totals under a single lock acquisition.
func (c *Cache) accumulateBatch(results []Result) {
	c.totMu.Lock()
	defer c.totMu.Unlock()
	c.tot.Batches++
	for i := range results {
		c.accumulateLocked(results[i].Stats)
	}
}
