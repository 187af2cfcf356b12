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

// Observer receives the cache's one event no caller sees: a
// WindowObservation per Window Manager pass, which runs inside whichever
// query's run drains the window. A query's QueryStats travels with its
// Result and a mutation's MutationResult returns to its caller; those
// callers fold them. Implementations must be safe for concurrent calls and
// fast: a slow ObserveWindow holds up the return of the query that ran the
// pass. A nil Observer (the default) costs one atomic load per pass.
type Observer interface {
	ObserveWindow(WindowObservation)
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
