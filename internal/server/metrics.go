package server

import (
	"graphcache/internal/core"
	"graphcache/internal/telemetry"
)

// serverMetrics is gcserved's metric surface: the engine telemetry fed
// by the cache Observer plus the serving-boundary series (coalescer
// waits, batch sizes, codec time, shed/warm events, admitted gauge).
// Everything lives in one Registry served at GET /metrics.
type serverMetrics struct {
	reg *telemetry.Registry

	// Engine stages, fed by the Observer.
	durFeature  *telemetry.Histogram
	durProbe    *telemetry.Histogram
	durGCVerify *telemetry.Histogram
	durFilterM  *telemetry.Histogram
	durFilterGC *telemetry.Histogram
	durVerify   *telemetry.Histogram
	durTotal    *telemetry.Histogram

	queriesSingle *telemetry.Counter
	queriesBatch  *telemetry.Counter

	hitsExact     *telemetry.Counter
	hitsEmpty     *telemetry.Counter
	hitsContainer *telemetry.Counter
	hitsContainee *telemetry.Counter

	candMethod *telemetry.Counter
	candFinal  *telemetry.Counter
	candHist   *telemetry.Histogram
	saved      *telemetry.Counter
	credit     *telemetry.Counter

	windowDur      *telemetry.Histogram
	windowAdmitted *telemetry.Counter
	windowEvicted  *telemetry.Counter
	windowRejected *telemetry.Counter

	// Serving boundary.
	coalesceWait *telemetry.Histogram
	batchSize    *telemetry.Histogram
	dispatch     [len(dispatchReasons)]*telemetry.Counter // why each coalesced run started
	shedTotal    *telemetry.Counter
	warmTotal    *telemetry.Counter

	// Batches cut short by a departed client, and the sub-iso tests that
	// cancellation let the cache abandon.
	streamCancelled *telemetry.Counter
	streamAbandoned *telemetry.Counter

	// Dataset mutations (fed by the MutationObserver extension).
	mutAdd         *telemetry.Counter
	mutRemove      *telemetry.Counter
	mutEdit        *telemetry.Counter
	mutExtended    *telemetry.Counter
	mutReverified  *telemetry.Counter
	mutInvalidated *telemetry.Counter
	mutDur         *telemetry.Histogram
}

// Why the coalescer dispatched a run; the values index dispatchReasons, the
// reason label of graphcache_server_coalesce_dispatch_total.
const (
	dispatchIdle    = iota // no run in flight when the query arrived
	dispatchDrained        // a returning run took the queue
	dispatchFull           // MaxBatch queries had queued
	dispatchTimeout        // a queued query had been held for MaxDelay
)

var dispatchReasons = [...]string{"idle", "drained", "full", "timeout"}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	const durName = "graphcache_query_duration_seconds"
	const durHelp = "Per-stage query latency, by engine stage."
	stage := func(s string) *telemetry.Histogram {
		return reg.Histogram(durName, durHelp, nil, telemetry.L("stage", s))
	}
	const hitName = "graphcache_query_hits_total"
	const hitHelp = "Cache hits by kind (exact, empty, container, containee)."
	hit := func(k string) *telemetry.Counter {
		return reg.Counter(hitName, hitHelp, telemetry.L("kind", k))
	}
	m := &serverMetrics{
		reg:         reg,
		durFeature:  stage("feature"),
		durProbe:    stage("probe"),
		durGCVerify: stage("gcverify"),
		durFilterM:  stage("filter_m"),
		durFilterGC: stage("filter_gc"),
		durVerify:   stage("verify"),
		durTotal:    stage("total"),

		queriesSingle: reg.Counter("graphcache_queries_total", "Queries processed, by path.", telemetry.L("path", "single")),
		queriesBatch:  reg.Counter("graphcache_queries_total", "Queries processed, by path.", telemetry.L("path", "batched")),

		hitsExact:     hit("exact"),
		hitsEmpty:     hit("empty"),
		hitsContainer: hit("container"),
		hitsContainee: hit("containee"),

		candMethod: reg.Counter("graphcache_candidates_total", "Candidate graphs, before (method) and after (final) GC pruning.", telemetry.L("stage", "method")),
		candFinal:  reg.Counter("graphcache_candidates_total", "Candidate graphs, before (method) and after (final) GC pruning.", telemetry.L("stage", "final")),
		candHist:   reg.Histogram("graphcache_query_candidates", "Per-query final candidate-set size.", telemetry.SizeBuckets),
		saved:      reg.Counter("graphcache_verifications_saved_total", "Method-M sub-iso tests avoided by candidate-set pruning."),
		credit:     reg.Counter("graphcache_credit_saved_total", "Cost-model estimate of verification time saved by cache hits."),

		windowDur:      reg.Histogram("graphcache_window_rebuild_seconds", "Window Manager pass duration (admission, eviction, index rebuild).", nil),
		windowAdmitted: reg.Counter("graphcache_window_admitted_total", "Queries admitted to the cache by the Window Manager."),
		windowEvicted:  reg.Counter("graphcache_window_evicted_total", "Cached queries evicted by the replacement policy."),
		windowRejected: reg.Counter("graphcache_window_rejected_total", "Window queries refused by admission control."),

		coalesceWait: reg.Histogram("graphcache_server_coalesce_wait_seconds", "Time a query was held in the coalescer's queue before its run was dispatched (about 0 when the engine was idle).", nil),
		batchSize:    reg.Histogram("graphcache_server_batch_size", "Executed batch sizes (coalesced and explicit /querybatch).", telemetry.SizeBuckets),
		shedTotal:    reg.Counter("graphcache_server_shed_total", "Requests refused with 429 at the admission gate."),
		warmTotal:    reg.Counter("graphcache_server_warmups_total", "Completed snapshot warm-ups."),

		streamCancelled: reg.Counter("graphcache_server_stream_cancelled_total",
			"Batches (streamed, buffered or coalesced) cut short because the client(s) went away."),
		streamAbandoned: reg.Counter("graphcache_server_stream_abandoned_verifications_total",
			"Sub-iso tests skipped because their batch's client(s) went away."),
	}
	for i, reason := range dispatchReasons {
		m.dispatch[i] = reg.Counter("graphcache_server_coalesce_dispatch_total",
			"Coalesced runs by why they were dispatched: engine idle on arrival, queue drained by a returning run, MaxBatch queued, or MaxDelay expired behind a busy engine.",
			telemetry.L("reason", reason))
	}
	const mutName = "graphcache_mutations_applied_total"
	const mutHelp = "Dataset mutations applied, by op."
	m.mutAdd = reg.Counter(mutName, mutHelp, telemetry.L("op", "add"))
	m.mutRemove = reg.Counter(mutName, mutHelp, telemetry.L("op", "remove"))
	m.mutEdit = reg.Counter(mutName, mutHelp, telemetry.L("op", "edit"))
	m.mutExtended = reg.Counter("graphcache_mutation_entries_extended_total",
		"Cached entries whose answer sets gained added graphs.")
	m.mutReverified = reg.Counter("graphcache_mutation_entries_reverified_total",
		"Cached entries re-verified after an edge edit.")
	m.mutInvalidated = reg.Counter("graphcache_mutation_entries_invalidated_total",
		"Cached entries that lost answer IDs to a removal or edit.")
	m.mutDur = reg.Histogram("graphcache_mutation_seconds",
		"Wall time one mutation held the cache's exclusivity window.", nil)
	return m
}

// ObserveMutation implements core.MutationObserver.
func (m *serverMetrics) ObserveMutation(o core.MutationObservation) {
	switch o.Op {
	case "add":
		m.mutAdd.Inc()
	case "remove":
		m.mutRemove.Inc()
	case "edit":
		m.mutEdit.Inc()
	}
	m.mutExtended.Add(float64(o.Extended))
	m.mutReverified.Add(float64(o.Reverified))
	m.mutInvalidated.Add(float64(o.Invalidated))
	m.mutDur.Observe(float64(o.DurationNS) / nsPerSec)
}

const nsPerSec = 1e9

// ObserveQuery implements core.Observer: every per-query emission lands
// in the stage histograms and hit/candidate counters.
func (m *serverMetrics) ObserveQuery(o core.QueryObservation) {
	if o.Batched {
		m.queriesBatch.Inc()
	} else {
		m.queriesSingle.Inc()
	}
	// The GC stage and its finer split are per-query shares of the run's
	// stage time (exact for a lone query).
	m.durFeature.Observe(float64(o.FeatureNS) / nsPerSec)
	m.durProbe.Observe(float64(o.ProbeNS) / nsPerSec)
	m.durGCVerify.Observe(float64(o.GCVerifyNS) / nsPerSec)
	m.durFilterGC.Observe(float64(o.FilterGCNS) / nsPerSec)
	m.durTotal.Observe(float64(o.TotalNS) / nsPerSec)

	switch {
	case o.ExactHit:
		m.hitsExact.Inc()
	case o.EmptyShortcut:
		m.hitsEmpty.Inc()
	default:
		m.durFilterM.Observe(float64(o.FilterMNS) / nsPerSec)
		m.durVerify.Observe(float64(o.VerifyNS) / nsPerSec)
		if o.Containers > 0 {
			m.hitsContainer.Inc()
		}
		if o.Containees > 0 {
			m.hitsContainee.Inc()
		}
		m.candMethod.Add(float64(o.CandidatesM))
		m.candFinal.Add(float64(o.CandidatesFinal))
		m.candHist.Observe(float64(o.CandidatesFinal))
		m.saved.Add(float64(o.CallsSaved))
	}
	if o.CreditSaved > 0 {
		m.credit.Add(o.CreditSaved)
	}
}

// ObserveWindow implements core.Observer.
func (m *serverMetrics) ObserveWindow(o core.WindowObservation) {
	m.windowDur.Observe(float64(o.DurationNS) / nsPerSec)
	m.windowAdmitted.Add(float64(o.Admitted))
	m.windowEvicted.Add(float64(o.Evicted))
	m.windowRejected.Add(float64(o.Rejected))
}

// fanoutObserver forwards to several observers — used when the cache
// arrives at New with an application observer already installed, so the
// server's metrics don't displace it.
type fanoutObserver []core.Observer

func (f fanoutObserver) ObserveQuery(o core.QueryObservation) {
	for _, ob := range f {
		ob.ObserveQuery(o)
	}
}

func (f fanoutObserver) ObserveWindow(o core.WindowObservation) {
	for _, ob := range f {
		ob.ObserveWindow(o)
	}
}

// ObserveMutation forwards to the members that understand mutations, so
// a fanout over mixed observers still satisfies core.MutationObserver.
func (f fanoutObserver) ObserveMutation(o core.MutationObservation) {
	for _, ob := range f {
		if mo, ok := ob.(core.MutationObserver); ok {
			mo.ObserveMutation(o)
		}
	}
}

// wireMetrics is one wire format's metric bundle in one direction —
// requests decoded or replies encoded: codec time
// (<prefix>_codec_seconds{op,codec}), bytes moved
// (graphcache_codec_bytes_total{codec,direction}) and how often the
// format was negotiated (<prefix>_wire_negotiated_total{codec,direction}).
// Each tier registers its own through NewWire.
type wireMetrics struct {
	Seconds    *telemetry.Histogram
	Bytes      *telemetry.Counter
	Negotiated *telemetry.Counter
}

// newWireMetrics registers the request side (request true) or the reply
// side of one wire format on reg. prefix scopes the per-tier series
// ("graphcache_server", "graphcache_router"); the byte counter keeps the
// tier-independent name graphcache_codec_bytes_total.
func newWireMetrics(reg *telemetry.Registry, prefix, codec string, request bool) *wireMetrics {
	op, bytesDir, msgDir := "encode", "out", "response"
	if request {
		op, bytesDir, msgDir = "decode", "in", "request"
	}
	codecL := telemetry.L("codec", codec)
	return &wireMetrics{
		Seconds: reg.Histogram(prefix+"_codec_seconds", "Wire codec time, by direction.",
			nil, telemetry.L("op", op), codecL),
		Bytes: reg.Counter("graphcache_codec_bytes_total", "Wire payload bytes moved, by codec and direction.",
			codecL, telemetry.L("direction", bytesDir)),
		Negotiated: reg.Counter(prefix+"_wire_negotiated_total", "Negotiated wire formats, by codec and message direction.",
			codecL, telemetry.L("direction", msgDir)),
	}
}
