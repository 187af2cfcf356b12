package server

import (
	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/telemetry"
)

// serverMetrics is gcserved's metric surface: each answered query's
// QueryStats (engine stages, hits, candidate counts, savings, credit), the
// Window Manager series fed by the cache Observer, each applied
// mutation's MutationResult, and the serving-boundary series (run sizes,
// codec time, shed/warm events, admitted gauge). These are the fleet's
// only per-query and per-mutation series: gcrouter does not fold what its
// backends already count. Everything lives in one Registry served at
// GET /metrics.
type serverMetrics struct {
	reg *telemetry.Registry

	// Per-query series, fed by observeQuery before each reply is written.
	durFeature, durProbe, durGCVerify  *telemetry.Histogram
	durFilterM, durFilterGC, durVerify *telemetry.Histogram
	durTotal                           *telemetry.Histogram
	hitExact, hitEmpty                 *telemetry.Counter
	hitContainer, hitContainee         *telemetry.Counter

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
	batchSize *telemetry.Histogram
	shedTotal *telemetry.Counter
	warmTotal *telemetry.Counter

	// Batches cut short by a departed client, and the sub-iso tests that
	// cancellation let the cache abandon.
	streamCancelled *telemetry.Counter
	streamAbandoned *telemetry.Counter

	// Dataset mutations, fed by observeMutation.
	mutAdd         *telemetry.Counter
	mutRemove      *telemetry.Counter
	mutEdit        *telemetry.Counter
	mutExtended    *telemetry.Counter
	mutReverified  *telemetry.Counter
	mutInvalidated *telemetry.Counter
	mutDur         *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	stage := func(s string) *telemetry.Histogram {
		return reg.Histogram("graphcache_query_duration_seconds", "Per-stage query latency, by engine stage.",
			nil, telemetry.L("stage", s))
	}
	hit := func(k string) *telemetry.Counter {
		return reg.Counter("graphcache_query_hits_total", "Cache hits by kind (exact, empty, container, containee).",
			telemetry.L("kind", k))
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

		hitExact:     hit("exact"),
		hitEmpty:     hit("empty"),
		hitContainer: hit("container"),
		hitContainee: hit("containee"),

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

		batchSize: reg.Histogram("graphcache_server_batch_size", "Queries per run of the pipeline (1 for a /query, the batch for a /querybatch).", telemetry.SizeBuckets),
		shedTotal: reg.Counter("graphcache_server_shed_total", "Requests refused with 429 at the admission gate."),
		warmTotal: reg.Counter("graphcache_server_warmups_total", "Completed snapshot warm-ups."),

		streamCancelled: reg.Counter("graphcache_server_stream_cancelled_total",
			"Runs (single queries and batches) cut short because their client went away."),
		streamAbandoned: reg.Counter("graphcache_server_stream_abandoned_verifications_total",
			"Sub-iso tests skipped because their run's client went away."),
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
		"Wall time of one applied mutation: new graphs' feature extraction, wait for in-flight queries, dataset and index change, cached-answer repair.", nil)
	return m
}

// observeQuery folds one answered query. batched says the query ran in a
// run of two or more. A special-case hit never ran Method M, so it adds to
// neither filter_m nor verify, and never computed a candidate set to count.
func (m *serverMetrics) observeQuery(qs *core.QueryStats, batched bool) {
	if batched {
		m.queriesBatch.Inc()
	} else {
		m.queriesSingle.Inc()
	}
	m.durFeature.Observe(qs.FeatureTime.Seconds())
	m.durProbe.Observe(qs.ProbeTime.Seconds())
	m.durGCVerify.Observe(qs.GCVerifyTime.Seconds())
	m.durFilterGC.Observe(qs.FilterGCTime.Seconds())
	m.durTotal.Observe(qs.TotalTime().Seconds())
	switch {
	case qs.ExactHit:
		m.hitExact.Inc()
	case qs.EmptyShortcut:
		m.hitEmpty.Inc()
	default:
		m.durFilterM.Observe(qs.FilterMTime.Seconds())
		m.durVerify.Observe(qs.VerifyTime.Seconds())
		if qs.Containers > 0 {
			m.hitContainer.Inc()
		}
		if qs.Containees > 0 {
			m.hitContainee.Inc()
		}
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

// observeMutation folds one mutation's result, op being the op it
// applied. A duplicate skipped by its sequence number did nothing and is
// not counted.
func (m *serverMetrics) observeMutation(op dataset.Op, res *core.MutationResult) {
	if !res.Applied {
		return
	}
	switch op {
	case dataset.OpAdd:
		m.mutAdd.Inc()
	case dataset.OpRemove:
		m.mutRemove.Inc()
	case dataset.OpEdit:
		m.mutEdit.Inc()
	}
	m.mutExtended.Add(float64(res.Extended))
	m.mutReverified.Add(float64(res.Reverified))
	m.mutInvalidated.Add(float64(res.Invalidated))
	m.mutDur.Observe(res.Duration.Seconds())
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
