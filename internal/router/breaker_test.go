package router

import (
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(clk *fakeClock, cfg breakerConfig) *breaker {
	if clk.t.IsZero() {
		clk.t = time.Unix(1_000_000, 0)
	}
	cfg.now = clk.now
	return newBreaker(cfg)
}

// record runs one Allow+Record round, failing the test if the breaker
// refused the dispatch.
func record(t *testing.T, b *breaker, ok bool) {
	t.Helper()
	if !b.Allow() {
		t.Fatalf("Allow refused a dispatch in state %v", b.State())
	}
	b.Record(ok)
}

// TestBreakerOpensOnBudgetBreach pins the opening rule: failures below
// the error budget or below minSamples leave the breaker closed; the
// failure that satisfies both opens it.
func TestBreakerOpensOnBudgetBreach(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, breakerConfig{
		window: 10 * time.Second, budget: 0.5, minSamples: 4,
		cooldown: time.Second,
	})

	// 3 failures in a row: 100% failure rate but under minSamples.
	for i := 0; i < 3; i++ {
		record(t, b, false)
		if st := b.State(); st != StateClosed {
			t.Fatalf("breaker %v after %d failures, want closed (minSamples=4)", st, i+1)
		}
	}
	// A success dilutes to 3/4 = 75% ≥ 50% with 4 samples — but the
	// budget is only checked on failures, so the breaker stays closed...
	record(t, b, true)
	if st := b.State(); st != StateClosed {
		t.Fatalf("breaker %v after a success, want closed", st)
	}
	// ...until the next failure tips it: 4/5 ≥ 50%, 5 ≥ 4 samples.
	record(t, b, false)
	if st := b.State(); st != StateOpen {
		t.Fatalf("breaker %v after budget breach, want open", st)
	}
	if c := b.Counts(); c.Opens != 1 || c.HalfOpens != 0 || c.Closes != 0 {
		t.Errorf("counts %+v, want exactly one open", c)
	}
}

// TestBreakerStaysClosedUnderBudget feeds a failure rate under the
// budget: plenty of samples, never opens.
func TestBreakerStaysClosedUnderBudget(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, breakerConfig{
		window: 10 * time.Second, budget: 0.5, minSamples: 4,
		cooldown: time.Second,
	})
	for i := 0; i < 32; i++ {
		record(t, b, i%4 != 0) // 1-in-4 failures < 50% budget
	}
	if st := b.State(); st != StateClosed {
		t.Fatalf("breaker %v at 25%% failures under a 50%% budget, want closed", st)
	}
	if ok, fail := b.Window(); ok != 24 || fail != 8 {
		t.Errorf("window ok=%d fail=%d, want 24/8", ok, fail)
	}
}

// TestBreakerCooldownAndHalfOpen pins the full recovery cycle: open
// rejects during cooldown, lazily half-opens after it with a bounded
// probe quota, and a probe's outcome decides between closed and open.
func TestBreakerCooldownAndHalfOpen(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, breakerConfig{
		window: 10 * time.Second, budget: 0.5, minSamples: 1,
		cooldown: time.Second,
	})
	record(t, b, false)
	if st := b.State(); st != StateOpen {
		t.Fatalf("breaker %v, want open", st)
	}

	// Cooling down: no dispatches, no state change.
	clk.advance(999 * time.Millisecond)
	if b.Available() || b.Allow() {
		t.Fatal("open breaker admitted a dispatch before the cooldown elapsed")
	}

	// Cooldown elapsed: Available (side-effect-free) keeps reporting
	// open-but-eligible without transitioning...
	clk.advance(2 * time.Millisecond)
	if !b.Available() {
		t.Fatal("cooled-down breaker not available")
	}
	if st := b.State(); st != StateOpen {
		t.Fatalf("Available transitioned the breaker to %v", st)
	}
	// ...and the first Allow half-opens and consumes the probe slot.
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if st := b.State(); st != StateHalfOpen {
		t.Fatalf("breaker %v after probe admission, want half-open", st)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second probe past its quota")
	}

	// Probe failure re-opens; a fresh cooldown applies.
	b.Record(false)
	if st := b.State(); st != StateOpen {
		t.Fatalf("breaker %v after failed probe, want open", st)
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("re-opened breaker refused a probe after its new cooldown")
	}
	// Probe success closes.
	b.Record(true)
	if st := b.State(); st != StateClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	c := b.Counts()
	if c.Opens != 2 || c.HalfOpens != 2 || c.Closes != 1 {
		t.Errorf("counts %+v, want opens=2 half_opens=2 closes=1", c)
	}
	if c.Opens < c.HalfOpens || c.HalfOpens < c.Closes {
		t.Errorf("counts %+v violate Opens ≥ HalfOpens ≥ Closes", c)
	}
}

// TestBreakerForgetReleasesProbeSlot pins the Forget contract: a
// half-open probe whose request died returns its slot without deciding
// the breaker's fate, so the next dispatch can probe instead.
func TestBreakerForgetReleasesProbeSlot(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, breakerConfig{
		window: 10 * time.Second, budget: 0.5, minSamples: 1,
		cooldown: time.Second,
	})
	record(t, b, false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	b.Forget()
	if st := b.State(); st != StateHalfOpen {
		t.Fatalf("breaker %v after Forget, want half-open (no verdict)", st)
	}
	if !b.Allow() {
		t.Fatal("Forget did not release the probe slot")
	}
	b.Record(true)
	if st := b.State(); st != StateClosed {
		t.Fatalf("breaker %v, want closed", st)
	}
}

// TestBreakerWindowSlides ages failures out: a burst of failures beyond
// the window no longer counts against the budget.
func TestBreakerWindowSlides(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, breakerConfig{
		window: 8 * time.Second, budget: 0.5, minSamples: 4,
		cooldown: time.Second,
	})
	// 3 failures now (under minSamples, breaker stays closed).
	for i := 0; i < 3; i++ {
		record(t, b, false)
	}
	// Let them age past the window, then observe a healthy stretch.
	clk.advance(9 * time.Second)
	for i := 0; i < 4; i++ {
		record(t, b, true)
	}
	// One fresh failure: window is 1 fail / 5 samples = 20% < 50%.
	record(t, b, false)
	if st := b.State(); st != StateClosed {
		t.Fatalf("breaker %v counted failures older than the window", st)
	}
	if ok, fail := b.Window(); ok != 4 || fail != 1 {
		t.Errorf("window ok=%d fail=%d, want 4/1 (old failures aged out)", ok, fail)
	}
}
