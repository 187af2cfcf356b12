package server

import (
	"graphcache/internal/core"
	"graphcache/internal/telemetry"
)

// QueryMetrics is the per-query metric fold both serving tiers share: the
// engine-stage histograms graphcache_query_duration_seconds{stage} for
// filter_m, filter_gc, verify and total, and the hit counters
// graphcache_query_hits_total{kind}. gcserved feeds it each result as the
// result is delivered, gcrouter each successful reply, so one scrape of
// either tier after a reply already counts that reply's query.
type QueryMetrics struct {
	filterM, filterGC, verify, total   *telemetry.Histogram
	exact, empty, container, containee *telemetry.Counter
}

const (
	durName = "graphcache_query_duration_seconds"
	durHelp = "Per-stage query latency, by engine stage."
)

// stageHist registers the stage series of graphcache_query_duration_seconds.
func stageHist(reg *telemetry.Registry, stage string) *telemetry.Histogram {
	return reg.Histogram(durName, durHelp, nil, telemetry.L("stage", stage))
}

// NewQueryMetrics registers the shared per-query series on reg.
func NewQueryMetrics(reg *telemetry.Registry) *QueryMetrics {
	const hitName = "graphcache_query_hits_total"
	const hitHelp = "Cache hits by kind (exact, empty, container, containee)."
	hit := func(k string) *telemetry.Counter {
		return reg.Counter(hitName, hitHelp, telemetry.L("kind", k))
	}
	return &QueryMetrics{
		filterM:   stageHist(reg, "filter_m"),
		filterGC:  stageHist(reg, "filter_gc"),
		verify:    stageHist(reg, "verify"),
		total:     stageHist(reg, "total"),
		exact:     hit("exact"),
		empty:     hit("empty"),
		container: hit("container"),
		containee: hit("containee"),
	}
}

// Observe folds one query's stats. A special-case hit never ran Method M,
// so it adds to neither filter_m nor verify.
func (m *QueryMetrics) Observe(qs *core.QueryStats) {
	m.filterGC.Observe(qs.FilterGCTime.Seconds())
	m.total.Observe(qs.TotalTime().Seconds())
	switch {
	case qs.ExactHit:
		m.exact.Inc()
	case qs.EmptyShortcut:
		m.empty.Inc()
	default:
		m.filterM.Observe(qs.FilterMTime.Seconds())
		m.verify.Observe(qs.VerifyTime.Seconds())
		if qs.Containers > 0 {
			m.container.Inc()
		}
		if qs.Containees > 0 {
			m.containee.Inc()
		}
	}
}

// serverMetrics is gcserved's metric surface: the shared per-query fold
// plus what only the engine's own process can see (the GC-stage split,
// candidate counts, savings, credit), the Window Manager and mutation
// series fed by the cache Observer, and the serving-boundary series
// (coalescer waits, batch sizes, codec time, shed/warm events, admitted
// gauge). Everything lives in one Registry served at GET /metrics.
type serverMetrics struct {
	reg *telemetry.Registry

	// Per-query series, fed by observeQuery as each result is delivered.
	query       *QueryMetrics
	durFeature  *telemetry.Histogram
	durProbe    *telemetry.Histogram
	durGCVerify *telemetry.Histogram

	queriesSingle *telemetry.Counter
	queriesBatch  *telemetry.Counter

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

	// Dataset mutations, fed by the Observer.
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
	m := &serverMetrics{
		reg:         reg,
		durFeature:  stageHist(reg, "feature"),
		durProbe:    stageHist(reg, "probe"),
		durGCVerify: stageHist(reg, "gcverify"),
		query:       NewQueryMetrics(reg),

		queriesSingle: reg.Counter("graphcache_queries_total", "Queries processed, by path.", telemetry.L("path", "single")),
		queriesBatch:  reg.Counter("graphcache_queries_total", "Queries processed, by path.", telemetry.L("path", "batched")),

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

// observeQuery folds one delivered query: the shared per-query series,
// then the server's own, which read QueryStats' in-process fields. batched
// says the query ran in a run of two or more.
func (m *serverMetrics) observeQuery(qs *core.QueryStats, batched bool) {
	m.query.Observe(qs)
	if batched {
		m.queriesBatch.Inc()
	} else {
		m.queriesSingle.Inc()
	}
	m.durFeature.Observe(qs.FeatureTime.Seconds())
	m.durProbe.Observe(qs.ProbeTime.Seconds())
	m.durGCVerify.Observe(qs.GCVerifyTime.Seconds())
	// A special-case hit never computed a candidate set to count.
	if !qs.ExactHit && !qs.EmptyShortcut {
		m.candMethod.Add(float64(qs.CandidatesM))
		m.candFinal.Add(float64(qs.CandidatesFinal))
		m.candHist.Observe(float64(qs.CandidatesFinal))
		// Pruning avoided |CS_M| − |CS_GC| Method-M verifications.
		m.saved.Add(float64(max(qs.CandidatesM-qs.CandidatesFinal, 0)))
	}
	if qs.Credit > 0 {
		m.credit.Add(qs.Credit)
	}
}

// ObserveWindow implements core.Observer.
func (m *serverMetrics) ObserveWindow(o core.WindowObservation) {
	m.windowDur.Observe(float64(o.DurationNS) / nsPerSec)
	m.windowAdmitted.Add(float64(o.Admitted))
	m.windowEvicted.Add(float64(o.Evicted))
	m.windowRejected.Add(float64(o.Rejected))
}

// ObserveMutation implements core.Observer.
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
