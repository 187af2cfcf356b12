package core

// QueryObservation is one query's per-stage telemetry, emitted exactly
// once per query to the cache's Observer. Stage durations are nanoseconds
// and are the query's share of its run's stage time (see
// QueryBatchStream): the GC stage and its finer feature/probe/GC-verify
// split divide evenly over the run's queries, verification in proportion
// to candidate-set size — exact values for a lone query.
type QueryObservation struct {
	Serial  int64
	Batched bool // the query ran in a run of two or more

	// GC filtering stage, split: path-feature extraction (only for the
	// queries the exact lookup left open), the GCindex exact-match lookup
	// (the query's IsoKey and the confirming sub-iso test) and containment
	// probe, and container/containee confirmation sub-iso tests. FeatureNS
	// + ProbeNS + GCVerifyNS ≈ FilterGCNS.
	FeatureNS  int64
	ProbeNS    int64
	GCVerifyNS int64
	FilterGCNS int64 // the whole GC stage (== QueryStats.FilterGCTime)
	FilterMNS  int64 // Method M filtering (0 on special-case hits)
	VerifyNS   int64 // Method M verification of the pruned set
	TotalNS    int64 // QueryStats.TotalTime()

	GCCandidates    int // QueryStats.GCVerifications: lookup matches + probe candidates confirmed
	Containers      int
	Containees      int
	CandidatesM     int // |CS_M| (0 on special-case hits — never computed)
	CandidatesFinal int // |CS_GC| actually verified
	DirectAnswers   int
	// CallsSaved is the Method-M verifications pruning avoided:
	// |CS_M| − |CS_GC| (0 on special-case hits, where the whole
	// candidate set — never computed — was saved).
	CallsSaved int
	// CreditSaved is the cost-model estimate of time saved by cache
	// hits on this query, as credited to the matched entries.
	CreditSaved float64

	ExactHit      bool
	EmptyShortcut bool
	AnswerSize    int
}

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

// MutationObserver is an optional extension of Observer: observers that
// implement it also receive per-mutation observations. Kept separate so
// existing Observer implementations stay source-compatible.
type MutationObserver interface {
	ObserveMutation(MutationObservation)
}

// Observer receives the cache's telemetry stream. Implementations must
// be safe for concurrent calls — queries emit from their own goroutines
// and window passes from the rebuild goroutine — and must be fast: both
// hooks run on serving paths. A nil Observer (the default) costs one
// atomic load per query and nothing else.
//
// A query's observation is emitted after its result is delivered, once
// its run's bookkeeping is done, so a caller that reads what the Observer
// gathered right after its last result can find the last queries of the
// run not yet observed.
type Observer interface {
	ObserveQuery(QueryObservation)
	ObserveWindow(WindowObservation)
}

// observerBox wraps the interface so it can live in an atomic.Pointer.
type observerBox struct{ o Observer }

// SetObserver installs (or with nil removes) the cache's Observer. Safe
// to call while queries are in flight: emission reads the pointer once
// per query, so a swap simply takes effect on subsequent queries.
func (c *Cache) SetObserver(o Observer) {
	if o == nil {
		c.obs.Store(nil)
		return
	}
	c.obs.Store(&observerBox{o: o})
}

// Observer returns the installed Observer, or nil — so a wrapping layer
// (the serving tier's metrics) can compose with an application observer
// instead of displacing it.
func (c *Cache) Observer() Observer { return c.observer() }

// observer returns the installed Observer, or nil.
func (c *Cache) observer() Observer {
	if b := c.obs.Load(); b != nil {
		return b.o
	}
	return nil
}

// emitQuery sends one query's observation; obs must be non-nil. The
// fields shared with QueryStats come from the final qs so the emission
// is a superset of what Totals.add folds into Totals.
func emitQuery(obs Observer, qs *QueryStats, featNS, probeNS, gcvNS int64, credit float64, batched bool) {
	callsSaved := qs.CandidatesM - qs.CandidatesFinal
	if callsSaved < 0 || qs.ExactHit || qs.EmptyShortcut {
		callsSaved = 0
	}
	obs.ObserveQuery(QueryObservation{
		Serial:          qs.Serial,
		Batched:         batched,
		FeatureNS:       featNS,
		ProbeNS:         probeNS,
		GCVerifyNS:      gcvNS,
		FilterGCNS:      qs.FilterGCTime.Nanoseconds(),
		FilterMNS:       qs.FilterMTime.Nanoseconds(),
		VerifyNS:        qs.VerifyTime.Nanoseconds(),
		TotalNS:         qs.TotalTime().Nanoseconds(),
		GCCandidates:    qs.GCVerifications,
		Containers:      qs.Containers,
		Containees:      qs.Containees,
		CandidatesM:     qs.CandidatesM,
		CandidatesFinal: qs.CandidatesFinal,
		DirectAnswers:   qs.DirectAnswers,
		CallsSaved:      callsSaved,
		CreditSaved:     credit,
		ExactHit:        qs.ExactHit,
		EmptyShortcut:   qs.EmptyShortcut,
		AnswerSize:      qs.AnswerSize,
	})
}
