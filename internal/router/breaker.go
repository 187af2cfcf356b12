package router

import (
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker's position. Closed admits traffic and
// tracks failures against the error budget; Open rejects dispatches
// while the backend cools down; HalfOpen admits one probe dispatch at a
// time, whose outcome decides between Closed and Open.
type State int

const (
	StateClosed State = iota
	StateOpen
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// BreakerCounts are a breaker's lifetime transition counters. They only
// grow, so a /stats poller can detect transitions it never saw live:
// Opens counts *→open, HalfOpens open→half-open, Closes half-open→closed.
// Every close is preceded by a half-open and every half-open by an open,
// so Opens ≥ HalfOpens ≥ Closes always holds.
type BreakerCounts struct {
	Opens     int64 `json:"opens"`
	HalfOpens int64 `json:"half_opens"`
	Closes    int64 `json:"closes"`
}

// breakerConfig parameterises one breaker. now is injectable so tests
// drive transitions with a fake clock.
type breakerConfig struct {
	window     time.Duration // sliding error-budget window
	budget     float64       // failure fraction that opens the breaker
	minSamples int           // samples required before opening
	cooldown   time.Duration // open → half-open delay
	now        func() time.Time
	// onTransition, when non-nil, is invoked with the new state on every
	// state change (including the lazy open→half-open inside Allow). It
	// runs under the breaker's lock, so it must be fast and must not call
	// back into the breaker.
	onTransition func(State)
}

// breakerBuckets is the sliding window's resolution: the window is
// approximated by this many fixed-width buckets, so a sample ages out at
// most window/breakerBuckets late.
const breakerBuckets = 8

// breaker is a per-backend circuit breaker. It replaces the serving
// tier's old binary healthy flag: instead of ejecting a backend on its
// first failed dispatch, failures are tallied over a sliding window and
// the breaker opens only when they breach the error budget; instead of
// readmission requiring a background prober, an open breaker lazily
// half-opens after the cooldown on the next Allow — so a handler-only
// Router embedding (no Start, no prober) readmits recovered backends on
// its own dispatch attempts.
//
// The dispatch contract: every Allow()==true must be matched by exactly
// one Record (success/failure) or Forget (the request's own context
// died — neither evidence for nor against the backend).
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	state    State
	openedAt time.Time
	// changedAt is when the breaker last changed state (seeded at
	// construction), exposed as the state's age in /topology.
	changedAt time.Time
	probing   bool // a half-open probe dispatch is in flight
	ring      [breakerBuckets]breakerBucket
	counts    BreakerCounts
}

type breakerBucket struct {
	start    time.Time
	ok, fail int64
}

func newBreaker(cfg breakerConfig) *breaker {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &breaker{cfg: cfg, changedAt: cfg.now()}
}

// Allow reports whether a dispatch may proceed, performing the lazy
// open→half-open transition when the cooldown has elapsed and consuming
// a half-open probe slot. A true return must be paired with Record or
// Forget.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateOpen:
		if b.cfg.now().Sub(b.openedAt) < b.cfg.cooldown {
			return false
		}
		b.state = StateHalfOpen
		b.changedAt = b.cfg.now()
		b.probing = false
		b.counts.HalfOpens++
		if b.cfg.onTransition != nil {
			b.cfg.onTransition(StateHalfOpen)
		}
		fallthrough
	case StateHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Available reports whether a dispatch could currently be admitted —
// the routing layer's side-effect-free eligibility check. Unlike Allow
// it neither consumes a probe slot nor transitions state: a cooled-down
// open breaker is available because the dispatch itself will half-open
// it.
func (b *breaker) Available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateOpen:
		return b.cfg.now().Sub(b.openedAt) >= b.cfg.cooldown
	case StateHalfOpen:
		return !b.probing
	}
	return true
}

// Record feeds one dispatch outcome back. In half-open a success closes
// the breaker and a failure re-opens it; closed, the sample joins the
// sliding window and a failure that tips the window past the error
// budget (with at least minSamples observations) opens the breaker.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	switch b.state {
	case StateHalfOpen:
		b.probing = false
		if ok {
			b.toClosed()
		} else {
			b.toOpen(now)
		}
	case StateClosed:
		b.observe(now, ok)
		if !ok {
			total, fail := b.tally(now)
			if total >= int64(b.cfg.minSamples) && float64(fail) >= b.cfg.budget*float64(total) {
				b.toOpen(now)
			}
		}
	case StateOpen:
		// A dispatch admitted just before the breaker opened; its
		// outcome no longer changes the verdict.
	}
}

// Forget releases an Allow()ed dispatch whose outcome says nothing
// about the backend — the request's own context died. In half-open the
// probe slot is returned so the next dispatch can probe instead.
func (b *breaker) Forget() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == StateHalfOpen {
		b.probing = false
	}
}

// State returns the breaker's current position, applying the lazy
// open→half-open transition check read-only (an open breaker past its
// cooldown still reports open until a dispatch half-opens it — the
// state observable in /stats is the state dispatches actually see).
func (b *breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Counts returns the lifetime transition counters.
func (b *breaker) Counts() BreakerCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts
}

// StateAge returns how long the breaker has been in its current state.
func (b *breaker) StateAge() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cfg.now().Sub(b.changedAt)
}

// Window returns the sliding window's current success/failure tallies.
func (b *breaker) Window() (ok, fail int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	total, fail := b.tally(b.cfg.now())
	return total - fail, fail
}

// ---- internals (callers hold b.mu) --------------------------------------

func (b *breaker) toOpen(now time.Time) {
	b.state = StateOpen
	b.openedAt = now
	b.changedAt = now
	b.counts.Opens++
	b.resetWindow()
	if b.cfg.onTransition != nil {
		b.cfg.onTransition(StateOpen)
	}
}

func (b *breaker) toClosed() {
	b.state = StateClosed
	b.changedAt = b.cfg.now()
	b.counts.Closes++
	b.resetWindow()
	if b.cfg.onTransition != nil {
		b.cfg.onTransition(StateClosed)
	}
}

func (b *breaker) resetWindow() {
	b.ring = [breakerBuckets]breakerBucket{}
}

// observe adds one sample to the bucket covering now, recycling buckets
// whose time slot has rotated past.
func (b *breaker) observe(now time.Time, ok bool) {
	bk := b.bucketFor(now)
	if ok {
		bk.ok++
	} else {
		bk.fail++
	}
}

func (b *breaker) bucketFor(now time.Time) *breakerBucket {
	width := b.cfg.window / breakerBuckets
	if width <= 0 {
		width = time.Millisecond
	}
	slot := now.UnixNano() / int64(width)
	start := time.Unix(0, slot*int64(width))
	bk := &b.ring[slot%breakerBuckets]
	if !bk.start.Equal(start) {
		*bk = breakerBucket{start: start}
	}
	return bk
}

// tally sums the samples still inside the sliding window.
func (b *breaker) tally(now time.Time) (total, fail int64) {
	horizon := now.Add(-b.cfg.window)
	for i := range b.ring {
		bk := &b.ring[i]
		if bk.start.IsZero() || bk.start.Before(horizon) {
			continue
		}
		total += bk.ok + bk.fail
		fail += bk.fail
	}
	return total, fail
}
