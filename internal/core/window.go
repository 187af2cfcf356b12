package core

import (
	"sort"
	"time"

	"graphcache/internal/iso"
)

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
		windowsLeft: calibrationWindows,
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
	ws     []*entry
	serial int64
}

// addToWindow appends a processed query to the Window (§6.2) and queues a
// full window for its pass under the same lock, so each is queued once.
// Passes run on the query path, by group commit: the caller that finds
// every queued window applied drains the queue itself, and its drain
// applies the windows other callers queue meanwhile too, in the order they
// filled, so no caller waits behind another's pass. Every caller is inside
// its gate slot (enterQuery) here, so once the mutation gate has drained
// in-flight queries no pass is running or queued.
func (c *Cache) addToWindow(e *entry, currentSerial int64) {
	c.winMu.Lock()
	c.window = append(c.window, e)
	if len(c.window) < c.opts.WindowSize {
		c.winMu.Unlock()
		return
	}
	c.queue = append(c.queue, filledWindow{c.window, currentSerial})
	c.window = make([]*entry, 0, c.opts.WindowSize)
	idle := c.applied == c.filled // else the running drain takes this window
	c.filled++
	c.winMu.Unlock()
	if idle {
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
		c.processWindow(next.ws, next.serial)
		c.winMu.Lock()
		c.applied++
		c.passDone.Broadcast()
	}
}

// Flush is a barrier: it returns once every window queued before the call
// has been applied, and never waits for windows queued after it. A window
// is pending only while some caller's drain has yet to apply it: one
// filled while another caller drains is left to that drain. Snapshot
// writes run it themselves.
func (c *Cache) Flush() {
	c.winMu.Lock()
	defer c.winMu.Unlock()
	for target := c.filled; c.applied < target; {
		c.passDone.Wait()
	}
}

// processWindow runs the Window Manager's window-full procedure (§6.2)
// over one filled window: admission control, replacement and the index
// delta + swap. The drain runs it, one pass at a time.
func (c *Cache) processWindow(ws []*entry, currentSerial int64) {
	start := time.Now()

	scores := make([]float64, len(ws))
	for i, e := range ws {
		scores[i] = e.score()
	}
	admitted := make([]*entry, 0, len(ws))
	c.admMu.Lock()
	c.adm.observe(scores)
	for i, e := range ws {
		if c.adm.admits(scores[i]) {
			admitted = append(admitted, e)
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
	for _, e := range admitted {
		g := e.g
		dup := old.exact(e.hash, g.NumVertices(), g.NumEdges(), func(cached *entry) bool {
			return iso.Contains(c.algo, g, cached.g)
		})
		if dup == nil {
			kept = append(kept, e)
		}
	}
	admitted = kept

	// Replacement (§6.3) ranks every cached query together.
	var victims []int64
	size := len(old.serials) + len(admitted) // admitted serials are new
	if over := size - c.opts.CacheSize; over > 0 {
		victims = SelectVictims(c.opts.Policy, c.entryStats(old.slotEntry), currentSerial, over)
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
			return admitted[a].serial < admitted[b].serial
		})
		fits = admitted[over:]
	}

	// Publish the GCindex delta. Entries arrive complete — feature vector,
	// hash, first-execution figures, zeroed counters — so no cached graph is
	// enumerated again and nothing else is initialised; the delta is linear
	// passes over the flat posting arrays (see applyDelta). Evicted entries
	// leave with their counters: a run still crediting one of them writes
	// to an object no generation reaches any more.
	c.index.Store(old.applyDelta(fits, victims))

	dur := time.Since(start)
	c.totMu.Lock()
	c.tot.WindowsProcessed++
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
func dedupeWindow(ws []*entry) []*entry {
	if len(ws) < 2 {
		return ws
	}
	keep := make([]*entry, 0, len(ws))
	for i := len(ws) - 1; i >= 0; i-- {
		e := ws[i]
		dup := false
		for _, k := range keep {
			if e.g == k.g || (e.hash == k.hash && iso.Isomorphic(iso.VF2{}, e.g, k.g)) {
				dup = true
				break
			}
		}
		if !dup {
			keep = append(keep, e)
		}
	}
	// Restore serial order.
	sort.Slice(keep, func(i, j int) bool { return keep[i].serial < keep[j].serial })
	return keep
}
