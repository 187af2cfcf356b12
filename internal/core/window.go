package core

import (
	"math"
	"sort"
	"time"

	"graphcache/internal/iso"
)

// windowEntry is one processed query awaiting the admission decision,
// together with the first-execution statistics the Window stores keep
// (§6.1).
type windowEntry struct {
	e        *entry
	filterNS float64 // total filtering time (Method M + GC processors)
	verifyNS float64
	ownCS    int     // |CS_M| at first execution
	ownCost  float64 // Σ c(q, G) over CS_M — the repeat-cost proxy
}

// score is the expensiveness of the query: verification over filtering
// time (§6.2).
func (w *windowEntry) score() float64 {
	if w.filterNS <= 0 {
		if w.verifyNS > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return w.verifyNS / w.filterNS
}

// admission holds the admission-control state: during the calibration
// phase scores are collected; afterwards the threshold admits the
// configured top fraction of queries by expensiveness.
type admission struct {
	enabled     bool
	fraction    float64
	calibrating bool
	windowsLeft int
	scores      []float64
	threshold   float64
}

func newAdmission(opts Options) admission {
	a := admission{
		enabled:     opts.AdmissionFraction > 0,
		fraction:    opts.AdmissionFraction,
		windowsLeft: opts.CalibrationWindows,
	}
	a.calibrating = a.enabled
	return a
}

// observe feeds one window's scores into calibration and finalises the
// threshold once enough windows were seen.
func (a *admission) observe(scores []float64) {
	if !a.enabled || !a.calibrating {
		return
	}
	a.scores = append(a.scores, scores...)
	a.windowsLeft--
	if a.windowsLeft > 0 {
		return
	}
	a.calibrating = false
	if len(a.scores) == 0 {
		return
	}
	sorted := append([]float64(nil), a.scores...)
	sort.Float64s(sorted)
	// Threshold such that ~fraction of observed queries score above it.
	idx := int(float64(len(sorted)) * (1 - a.fraction))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	if idx < 0 {
		idx = 0
	}
	a.threshold = sorted[idx]
	a.scores = nil
}

// admits reports whether a query with the given score may enter the cache.
// All queries are admitted while the component is disabled or calibrating.
func (a *admission) admits(score float64) bool {
	if !a.enabled || a.calibrating {
		return true
	}
	return score >= a.threshold
}

// processWindow runs the Window Manager's window-full procedure (§6.2)
// over one filled window's per-shard segments: admission control (global,
// over the whole window), then per-shard replacement, statistics
// initialisation and index rebuild + swap, parallelised across shards. It
// runs synchronously or on a background goroutine depending on
// Options.AsyncRebuild; window passes are serialised either way.
func (c *Cache) processWindow(segs [][]*windowEntry, currentSerial int64) {
	if c.opts.AsyncRebuild {
		c.rebuildWG.Add(1)
		go func() {
			defer c.rebuildWG.Done()
			c.rebuildMu.Lock()
			defer c.rebuildMu.Unlock()
			c.doProcessWindow(segs, currentSerial)
		}()
		return
	}
	c.rebuildMu.Lock()
	defer c.rebuildMu.Unlock()
	c.doProcessWindow(segs, currentSerial)
}

// shardPass carries one shard's state through the two parallel phases of
// doProcessWindow.
type shardPass struct {
	old      *queryIndex
	admitted []*windowEntry
	victims  []int64
}

func (c *Cache) doProcessWindow(segs [][]*windowEntry, currentSerial int64) {
	start := time.Now()
	windowSize := 0
	for _, seg := range segs {
		windowSize += len(seg)
	}

	// Admission control is a window-global decision: calibration observes
	// the whole window's scores, as in the unsharded design — sharding
	// partitions the store, not the admission policy.
	var scores []float64
	for _, seg := range segs {
		for _, w := range seg {
			scores = append(scores, w.score())
		}
	}

	passes := make([]shardPass, len(c.shards))
	rejected, admittedTotal := 0, 0
	c.admMu.Lock()
	c.adm.observe(scores)
	for i, seg := range segs {
		for _, w := range seg {
			if c.adm.admits(w.score()) {
				passes[i].admitted = append(passes[i].admitted, w)
			} else {
				rejected++
			}
		}
	}
	c.admMu.Unlock()

	// Phase 1, parallel per shard: window-batch dedup and the concurrent-
	// duplicate guard against already-cached isomorphs. Isomorphic queries
	// share a feature hash and therefore a shard, so per-shard dedup loses
	// nothing.
	c.pool.ParallelFor(len(c.shards), func(i int) {
		p := &passes[i]
		p.old = c.shards[i].index.Load()
		p.admitted = dedupeWindow(p.admitted)

		// Drop window entries isomorphic to an already-cached query.
		// Serially this cannot happen (a repeat always takes the
		// exact-match shortcut, which skips the Window), but two
		// concurrent callers can both miss on the same new query and both
		// window it — across different windows when AsyncRebuild
		// interleaves. Admitting the copy would waste a cache slot and
		// split the original's hit statistics. Isomorphic queries share a
		// feature hash, so only hash-equal pairs need the isomorphism test.
		if len(p.old.serials) > 0 {
			kept := p.admitted[:0]
			for _, w := range p.admitted {
				dup := false
				for slot, h := range p.old.hashes {
					if h == w.e.hash && iso.Isomorphic(iso.VF2{}, w.e.g, p.old.slotEntry[slot].g) {
						dup = true
						break
					}
				}
				if !dup {
					kept = append(kept, w)
				}
			}
			p.admitted = kept
		}
	})

	// Apportion the global capacity across shards in proportion to their
	// tentative occupancy (largest-remainder), so the utility policy runs
	// independently per shard while the global cap C is respected exactly.
	sizes := make([]int, len(passes))
	for i, p := range passes {
		sizes[i] = len(p.old.serials) + len(p.admitted) // admitted serials are new
	}
	budgets := apportionBudgets(c.opts.CacheSize, sizes)

	// Phase 2, parallel per shard: eviction against the shard's budget,
	// statistics-row initialisation in the shard's own store, and the
	// GCindex delta + swap. Entries arrive with their feature vectors
	// already memoised from the query path, so no cached graph is
	// enumerated again; the delta is linear passes over the shard's flat
	// posting arrays (see applyDelta).
	c.pool.ParallelFor(len(c.shards), func(i int) {
		p := &passes[i]
		sh := c.shards[i]

		size := len(p.old.serials) + len(p.admitted)
		if over := size - budgets[i]; over > 0 {
			p.victims = SelectVictims(c.opts.Policy, sh.stats, p.old.serials, currentSerial, over)
			size -= len(p.victims)
		}
		// More admitted than fits even after evicting everything: keep the
		// most expensive ones (newest on ties).
		fits := p.admitted
		if over := size - budgets[i]; over > 0 {
			sort.Slice(p.admitted, func(a, b int) bool {
				sa, sb := p.admitted[a].score(), p.admitted[b].score()
				if sa != sb {
					return sa < sb
				}
				return p.admitted[a].e.serial < p.admitted[b].e.serial
			})
			fits = p.admitted[over:]
		}

		// Initialise statistics rows for the entries that made it in,
		// batched into one locked apply per shard per window.
		var ops []StatOp
		added := make([]*entry, 0, len(fits))
		for _, w := range fits {
			added = append(added, w.e)
			s := w.e.serial
			ops = append(ops,
				StatOp{Key: s, Col: ColNodes, Val: float64(w.e.g.NumVertices()), Set: true},
				StatOp{Key: s, Col: ColEdges, Val: float64(w.e.g.NumEdges()), Set: true},
				StatOp{Key: s, Col: ColLabels, Val: float64(w.e.g.DistinctLabels()), Set: true},
				StatOp{Key: s, Col: ColFilterTime, Val: w.filterNS, Set: true},
				StatOp{Key: s, Col: ColVerifyTime, Val: w.verifyNS, Set: true},
				StatOp{Key: s, Col: ColOwnCS, Val: float64(w.ownCS), Set: true},
				StatOp{Key: s, Col: ColOwnCost, Val: w.ownCost, Set: true},
				StatOp{Key: s, Col: ColHits, Set: true},
				StatOp{Key: s, Col: ColSpecialHits, Set: true},
				StatOp{Key: s, Col: ColLastHit, Val: float64(s), Set: true},
				StatOp{Key: s, Col: ColCSReduction, Set: true},
				StatOp{Key: s, Col: ColTimeSaving, Set: true})
		}
		sh.stats.ApplyBatch(ops)

		for _, e := range added {
			e.featureVector(c.opts.MaxPathLen) // memoised on the query path; recompute only off-path inserts
			sh.answerRefAdd(e.serial, e.answer)
		}
		sh.index.Store(p.old.applyDelta(added, p.victims))

		// Lazy cleanup of evicted entries' statistics (§6.2) and reverse
		// answer-index references.
		for _, s := range p.victims {
			sh.stats.Delete(s)
			if old := p.old.lookup(s); old != nil {
				sh.answerRefDel(s, old.answer)
			}
		}
	})

	evicted := 0
	for i := range passes {
		admittedTotal += len(passes[i].admitted)
		evicted += len(passes[i].victims)
	}

	dur := time.Since(start)
	c.totMu.Lock()
	c.tot.WindowsProcessed++
	c.tot.Rebuilds++
	c.tot.Admitted += int64(admittedTotal)
	c.tot.Evicted += int64(evicted)
	c.tot.RejectedByAdmission += int64(rejected)
	c.tot.MaintenanceTime += dur
	c.totMu.Unlock()

	if obs := c.observer(); obs != nil {
		obs.ObserveWindow(WindowObservation{
			DurationNS: dur.Nanoseconds(),
			WindowSize: windowSize,
			Admitted:   admittedTotal,
			Evicted:    evicted,
			Rejected:   rejected,
		})
	}
}

// dedupeWindow removes duplicate queries from one window batch (identical
// pool queries can recur within a window before any of them is cached),
// keeping the latest occurrence.
func dedupeWindow(ws []*windowEntry) []*windowEntry {
	if len(ws) < 2 {
		return ws
	}
	keep := make([]*windowEntry, 0, len(ws))
	for i := len(ws) - 1; i >= 0; i-- {
		w := ws[i]
		dup := false
		for _, k := range keep {
			if w.e.g == k.e.g ||
				(w.e.hash == k.e.hash && iso.Isomorphic(iso.VF2{}, w.e.g, k.e.g)) {
				dup = true
				break
			}
		}
		if !dup {
			keep = append(keep, w)
		}
	}
	// Restore serial order.
	sort.Slice(keep, func(i, j int) bool { return keep[i].e.serial < keep[j].e.serial })
	return keep
}
