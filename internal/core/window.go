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

// filledWindow is a full window awaiting its pass, with the serial counter
// as it stood when the window filled.
type filledWindow struct {
	ws     []*windowEntry
	serial int64
}

// addToWindow appends a processed query to the Window (§6.2) and queues a
// full window for its pass under the same lock, so each is queued once.
// Passes have one owner at a time, as in the coalescer's group commit: the
// caller that finds every queued window applied starts a drain — inline, or
// on a new goroutine under Options.AsyncRebuild — and the drain applies the
// windows queued meanwhile too, in the order they filled. A single caller
// therefore makes the same decisions in either mode.
func (c *Cache) addToWindow(w *windowEntry, currentSerial int64) {
	w.e.featureHash(c.opts.MaxPathLen) // memoised on the query path; computed here for other inserts
	c.winMu.Lock()
	c.window = append(c.window, w)
	if len(c.window) < c.opts.WindowSize {
		c.winMu.Unlock()
		return
	}
	c.queue = append(c.queue, filledWindow{c.window, currentSerial})
	c.window = make([]*windowEntry, 0, c.opts.WindowSize)
	idle := c.applied == c.filled // else the running drain takes this window
	c.filled++
	c.winMu.Unlock()
	switch {
	case !idle:
	case c.opts.AsyncRebuild:
		go c.drain()
	default:
		c.drain()
	}
}

// drain applies the queued windows in order until none is left.
func (c *Cache) drain() {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	for len(c.queue) > 0 {
		next := c.queue[0]
		c.queue = c.queue[1:]
		c.winMu.Unlock()
		c.rebuildMu.Lock()
		c.processWindow(next.ws, next.serial)
		c.rebuildMu.Unlock()
		c.winMu.Lock()
		c.applied++
		c.passDone.Broadcast()
	}
}

// Flush is a barrier: it returns once every window queued before the call
// has been applied, and never waits for windows queued after it. Snapshot
// writes, mutations and snapshot loads run it themselves.
func (c *Cache) Flush() {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	for target := c.filled; c.applied < target; {
		c.passDone.Wait()
	}
}

// processWindow runs the Window Manager's window-full procedure (§6.2)
// over one filled window: admission control, replacement, statistics
// initialisation and the index delta + swap. The drain runs it under
// rebuildMu.
func (c *Cache) processWindow(ws []*windowEntry, currentSerial int64) {
	start := time.Now()

	scores := make([]float64, len(ws))
	for i, w := range ws {
		scores[i] = w.score()
	}
	var admitted []*windowEntry
	c.admMu.Lock()
	c.adm.observe(scores)
	for i, w := range ws {
		if c.adm.admits(scores[i]) {
			admitted = append(admitted, w)
		}
	}
	c.admMu.Unlock()
	rejected := len(ws) - len(admitted)

	// Drop window entries isomorphic to an already-cached query. Serially
	// this cannot happen (a repeat always takes the exact-match shortcut,
	// which skips the Window), but two concurrent callers can both miss on
	// the same new query and both window it — across different windows
	// when the first copy's pass has not landed yet. Admitting the copy
	// would waste a cache slot and split the original's hit statistics. The
	// exact lookup finds it: equal sizes plus containment is isomorphism.
	old := c.index.Load()
	admitted = dedupeWindow(admitted)
	kept := admitted[:0]
	for _, w := range admitted {
		g := w.e.g
		dup := old.exact(w.e.hash, g.NumVertices(), g.NumEdges(), func(e *entry) bool {
			return iso.Contains(c.algo, g, e.g)
		})
		if dup == nil {
			kept = append(kept, w)
		}
	}
	admitted = kept

	// Replacement (§6.3) ranks every cached query together.
	var victims []int64
	size := len(old.serials) + len(admitted) // admitted serials are new
	if over := size - c.opts.CacheSize; over > 0 {
		victims = SelectVictims(c.opts.Policy, c.stats, old.serials, currentSerial, over)
		size -= len(victims)
	}
	// More admitted than fits even after evicting everything: keep the
	// most expensive ones (newest on ties).
	fits := admitted
	if over := size - c.opts.CacheSize; over > 0 {
		sort.Slice(admitted, func(a, b int) bool {
			sa, sb := admitted[a].score(), admitted[b].score()
			if sa != sb {
				return sa < sb
			}
			return admitted[a].e.serial < admitted[b].e.serial
		})
		fits = admitted[over:]
	}

	// Initialise statistics rows for the entries that made it in, batched
	// into one locked apply per window, then publish the GCindex delta.
	// Entries arrive with their feature vectors already memoised from the
	// query path, so no cached graph is enumerated again; the delta is
	// linear passes over the flat posting arrays (see applyDelta).
	ops := make([]StatOp, 0, 12*len(fits))
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
	c.stats.ApplyBatch(ops)
	c.index.Store(old.applyDelta(added, victims))

	// Lazy cleanup of evicted entries' statistics (§6.2).
	for _, s := range victims {
		c.stats.Delete(s)
	}

	dur := time.Since(start)
	c.totMu.Lock()
	c.tot.WindowsProcessed++
	c.tot.Rebuilds++
	c.tot.Admitted += int64(len(admitted))
	c.tot.Evicted += int64(len(victims))
	c.tot.RejectedByAdmission += int64(rejected)
	c.tot.MaintenanceTime += dur
	c.totMu.Unlock()

	if obs := c.observer(); obs != nil {
		obs.ObserveWindow(WindowObservation{
			DurationNS: dur.Nanoseconds(),
			WindowSize: len(ws),
			Admitted:   len(admitted),
			Evicted:    len(victims),
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
