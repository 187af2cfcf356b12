package core

// WindowObservation is one Window Manager pass: its wall time and the
// admission/eviction outcome, emitted once per processed window.
type WindowObservation struct {
	DurationNS int64
	WindowSize int // entries the window held when it fired
	Admitted   int
	Evicted    int
	Rejected   int // refused by admission control
}

// MutationObservation is one applied dataset mutation: what it was and
// what repairing the cache cost, emitted once per ApplyMutation that
// actually applied (duplicates skipped by sequence number emit nothing).
type MutationObservation struct {
	Op         string // "add", "remove" or "edit"
	Epoch      int64  // dataset epoch after the mutation
	DurationNS int64

	EntriesTouched int
	Reverified     int
	Extended       int
	Invalidated    int
	WindowPatched  int
}

// Observer receives the cache's whole-cache telemetry: one
// WindowObservation per Window Manager pass and one MutationObservation per
// applied dataset mutation. Per-query figures are not observed: each query's
// QueryStats travels with its Result, and whoever delivers the answer folds
// it. Implementations must be safe for concurrent calls — window passes run
// on the goroutine of the query that drains the window, mutations on their
// caller's — and fast: a slow ObserveWindow holds up that query's return.
// A nil Observer (the default) costs one atomic load per pass or mutation.
type Observer interface {
	ObserveWindow(WindowObservation)
	ObserveMutation(MutationObservation)
}

// observerBox wraps the interface so it can live in an atomic.Pointer.
type observerBox struct{ o Observer }

// SetObserver installs (or with nil removes) the cache's Observer. Safe
// to call while queries and window passes are in flight: each emission
// reads the pointer once, so a swap takes effect from the next one.
func (c *Cache) SetObserver(o Observer) {
	if o == nil {
		c.obs.Store(nil)
		return
	}
	c.obs.Store(&observerBox{o: o})
}

// observer returns the installed Observer, or nil.
func (c *Cache) observer() Observer {
	if b := c.obs.Load(); b != nil {
		return b.o
	}
	return nil
}
