package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// TestCapacityRespected: the cache never holds more than CacheSize
// entries at any window boundary — including windows that admit more
// queries than the whole cache holds.
func TestCapacityRespected(t *testing.T) {
	ds := moleculeDataset(40, 33)
	for _, window := range []int{4, 8, 16} {
		c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 8, WindowSize: window})
		for _, q := range typeAWorkload(ds, "UU", 120, 34) {
			c.Query(q.Graph)
			if got := len(c.CachedSerials()); got > 8 {
				t.Fatalf("WindowSize=%d: cache grew to %d entries, cap is 8", window, got)
			}
		}
		c.Flush()
		if got := len(c.CachedSerials()); got == 0 {
			t.Errorf("WindowSize=%d: cache still empty after 120 queries", window)
		}
	}
}

// TestEvictionIsGlobal: replacement ranks every cached query together
// (§6.3). For each policy, over a stream that churns the cache, every
// window pass over a full cache evicts exactly SelectVictims over all
// cached serials, computed before the pass from the statistics as they
// stood.
func TestEvictionIsGlobal(t *testing.T) {
	ds := moleculeDataset(60, 45)
	queries := typeAWorkload(ds, "UU", 240, 46)
	for _, policy := range []PolicyKind{LRU, POP, PIN, PINC, HD} {
		c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 4, Policy: policy})
		checked := 0
		for i, q := range queries {
			c.Query(q.Graph)
			if i%7 != 6 {
				continue
			}
			// Run the pending window's pass by hand, so the expected
			// victims can be computed just before it.
			c.winMu.Lock()
			ws := c.window
			c.window = nil
			c.winMu.Unlock()
			if len(ws) == 0 {
				continue
			}
			cached := c.CachedSerials()
			over := len(cached) + len(ws) - c.opts.CacheSize
			current := c.serial.Load()
			want := SelectVictims(policy, c.EntryStats(), current, over)
			admitted := c.Totals().Admitted
			c.processWindow(ws, current)
			if over <= 0 || c.Totals().Admitted-admitted != int64(len(ws)) {
				continue // not full, or a duplicate was dropped: over is not what the pass used
			}
			after := c.CachedSerials()
			var got []int64
			for _, s := range cached {
				if _, ok := slices.BinarySearch(after, s); !ok {
					got = append(got, s)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%v, query %d: the pass evicted %v, SelectVictims over the whole cache picks %v", policy, i, got, want)
			}
			checked++
		}
		if checked < 10 {
			t.Fatalf("%v: only %d window passes over a full cache were checked", policy, checked)
		}
		t.Logf("%v: %d window passes over a full cache checked", policy, checked)
	}
}

// parkingObserver holds every window pass inside ObserveWindow — after the
// pass has published its index generation, before it returns — until the
// test releases it, announcing each arrival on entered.
type parkingObserver struct{ entered, release chan struct{} }

func (o parkingObserver) ObserveWindow(WindowObservation) {
	o.entered <- struct{}{}
	<-o.release
}

// waitParkedIn waits until some goroutine is blocked inside fn.
func waitParkedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, fn) && !strings.Contains(g, "[running]") && !strings.Contains(g, "[runnable]") {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked in %s", fn)
}

// TestMaintainerFlushWhilePassParked parks a window pass on the query
// that filled window 1 and, while it is parked, calls Flush on another
// goroutine, has a second caller fill window 2 and starts a mutation. That
// caller leaves its window to the parked drain and returns; Flush waits for
// the parked pass and for nothing queued after the call; the drain applies
// window 2 after window 1, on the first caller's goroutine; the mutation
// waits for the drain to finish, so it never sees a queued window; a third
// window, filled once no drain runs, gets its pass from the query that
// fills it. Under -race this is also the check on the hand-offs: with a
// WaitGroup here, the Add of a window filled after a Wait had blocked
// raced that Wait.
func TestMaintainerFlushWhilePassParked(t *testing.T) {
	obs := parkingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	c := New(method.NewVF2Plus(moleculeDataset(20, 53)), Options{CacheSize: 100, WindowSize: 2})
	c.SetObserver(obs)
	// fill runs two new, non-isomorphic queries on its own goroutine — one
	// full window — and closes the returned channel once both returned.
	fill := func(label graph.Label) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Query(pathG(label, label+1))
			c.Query(pathG(label+2, label+3))
		}()
		return done
	}

	filled1 := fill(100)
	<-obs.entered // pass 1 parked on the query that filled window 1
	flushed := make(chan struct{})
	go func() {
		c.Flush()
		close(flushed)
	}()
	waitParkedIn(t, "core.(*Cache).Flush")
	select { // window 2, queued after the Flush call, by a second caller
	case <-fill(110):
	case <-time.After(5 * time.Second):
		t.Fatal("a caller waited behind another caller's window pass")
	}
	mutated := make(chan struct{})
	go func() {
		defer close(mutated)
		if _, err := c.RemoveGraphs([]int32{0}); err != nil {
			t.Error(err)
		}
	}()
	waitParkedIn(t, "sync.(*RWMutex).Lock") // the mutation waits at the gate
	obs.release <- struct{}{}
	<-obs.entered // pass 2 parked, on the same drain
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Error("Flush waited for a window queued after the call")
	}
	select {
	case <-filled1:
		t.Error("the drain returned before applying window 2")
	case <-mutated:
		t.Error("a mutation ran while a window pass was running")
	default:
	}
	obs.release <- struct{}{}
	<-filled1
	<-mutated
	if got := c.Totals().Mutations; got != 1 {
		t.Errorf("%d mutations applied, want 1", got)
	}

	filled3 := fill(120) // window 3: a new drain starts from idle
	<-obs.entered
	obs.release <- struct{}{}
	<-filled3
	<-flushed
	if got := c.Totals().WindowsProcessed; got != 3 {
		t.Errorf("%d window passes applied, want 3", got)
	}
	if got := len(c.CachedSerials()); got != 6 {
		t.Errorf("%d queries cached after three windows of two, want 6", got)
	}
}

// TestIsomorphsShareFeatureHash pins the invariant the exact lookup and
// the duplicate guards rely on: isomorphic graphs share a key, and the
// non-isomorphic ones in the sample do not.
func TestIsomorphsShareFeatureHash(t *testing.T) {
	a := entryOf(1, pathG(3, 1, 2))
	b := entryOf(2, pathG(2, 1, 3)) // reversed path: isomorphic
	if a.hash != b.hash {
		t.Error("isomorphic entries must share a key")
	}
	for _, g := range []*graph.Graph{pathG(5, 6), pathG(3, 1), pathG(1, 3, 2), pathG(3, 1, 2, 2)} {
		if other := entryOf(3, g); a.hash == other.hash {
			t.Errorf("%v shares the key %x of a non-isomorphic path", g, a.hash)
		}
	}
	if got, want := a.hash, a.g.IsoKey(); got != want {
		t.Errorf("entry key = %x, want IsoKey %x", got, want)
	}
}

// TestAdaptiveVerifyDeterministic: the fan-out changes scheduling, never
// answers — a cache verifying inline and one with an eight-worker pool must
// agree on every query, and the worker sizing must stay within
// [1, VerifyConcurrency].
func TestAdaptiveVerifyDeterministic(t *testing.T) {
	ds := moleculeDataset(50, 37)
	queries := typeAWorkload(ds, "ZU", 120, 38)
	pooled := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, VerifyConcurrency: 8})
	inline := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, VerifyConcurrency: 1})
	for i, q := range queries {
		a := pooled.Query(q.Graph).Answer
		b := inline.Query(q.Graph).Answer
		if !eq(a, b) {
			t.Fatalf("query %d: pooled answer %v != inline %v", i, a, b)
		}
	}
	if got := pooled.adaptiveWorkers(3); got < 1 || got > 8 {
		t.Errorf("adaptiveWorkers = %d out of [1, 8]", got)
	}
}

// TestAdaptiveWorkersSizing: tiny work lists must shrink the fan-out to
// one worker, large ones must open the pool.
func TestAdaptiveWorkersSizing(t *testing.T) {
	c := New(method.NewVF2Plus(moleculeDataset(10, 39)), Options{VerifyConcurrency: 8})
	if got := c.adaptiveWorkers(100); got != 8 {
		t.Errorf("100 candidates: workers = %d, want full pool 8", got)
	}
	if got := c.adaptiveWorkers(2); got != 1 {
		t.Errorf("tiny candidate set: workers = %d, want 1", got)
	}
	if got := c.adaptiveWorkers(1000); got != 8 {
		t.Errorf("huge candidate set: workers = %d, want 8", got)
	}
}
