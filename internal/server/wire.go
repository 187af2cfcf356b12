package server

import (
	"fmt"

	"graphcache/internal/core"
	"graphcache/internal/graph"
	"graphcache/internal/telemetry"
)

// The wire protocol is JSON envelopes around the t/v/e graph text format
// (internal/graph's EncodeText/DecodeText) — the same format datasets and
// workloads already ship in, so any client that can print a graph file can
// query a gcserved:
//
//	POST /query       {"graph": "t # 0\nv 0 1\n..."}        → QueryResponse
//	POST /querybatch  {"graphs": "t # 0\n...\nt # 1\n..."}  → BatchResponse
//	GET  /stats                                             → StatsResponse
//	GET  /healthz                                           → 200 "ok"
//
// Errors come back as {"error": "..."} with a 4xx/5xx status.
//
// The JSON is what encoding/json makes of the types below, but the two
// result envelopes — QueryResponse and BatchResponse — are coded by hand (results.go): the encoders write exactly encoding/json's
// bytes and the decoder follows its semantics, which tests pin against
// encoding/json itself (TestResultEncodersMatchEncodingJSON,
// TestWireRepliesMatchEncodingJSON, FuzzDecodeResults). A field added to
// them, or to core.QueryStats, must be added to the codec; the tests fail
// until it is. Every other body goes through encoding/json.

// epochHeader carries a backend's dataset epoch on GET /healthz
// responses, so the router's health probes double as its epoch feed.
const epochHeader = "X-GC-Epoch"

// QueryRequest is the body of POST /query: exactly one graph in the t/v/e
// text format.
type QueryRequest struct {
	Graph string `json:"graph"`
}

// QueryResponse is one query's answer: the sorted IDs of matching dataset
// graphs plus the cache's per-query statistics. Trace is present only
// when the request asked for it (?debug=trace, on /query and /querybatch
// alike, so every result of a batch has one): the per-stage span
// breakdown under the request id the front door minted — a router
// prepends its own spans, so the one response shows the whole path.
type QueryResponse struct {
	Answer []int32          `json:"answer"`
	Stats  core.QueryStats  `json:"stats"`
	Trace  *telemetry.Trace `json:"trace,omitempty"`
}

// BatchRequest is the body of POST /querybatch: one or more graphs in the
// t/v/e text format, answered in order by one Cache.QueryBatch call.
type BatchRequest struct {
	Graphs string `json:"graphs"`
}

// BatchResponse holds the batch's answers, aligned with the request's
// graphs.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// StatsResponse is the body of GET /stats: the cache's lifetime totals and
// a summary of the serving configuration.
type StatsResponse struct {
	Totals core.Totals `json:"totals"`
	Cached int         `json:"cached"` // cached queries right now
	Method string      `json:"method"`
	Mode   string      `json:"mode"`
	// Shed counts requests this server refused with 429 because admitted
	// queries crossed Options.ShedThreshold.
	Shed int64 `json:"shed,omitempty"`
	// Warmed counts completed snapshot warm-ups (POST /warm or
	// -warm-from) — a joiner that has ingested a peer snapshot shows
	// Warmed ≥ 1 before its first dispatch.
	Warmed int64 `json:"warmed,omitempty"`
	// DatasetEpoch is the dataset's mutation epoch (0 = never mutated);
	// MutationSeq the highest applied mutation sequence number. The
	// router reads both to detect backends lagging the fleet.
	DatasetEpoch int64 `json:"dataset_epoch"`
	MutationSeq  int64 `json:"mutation_seq,omitempty"`
	// UptimeSeconds is how long this process has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// GoVersion and Build identify the running binary (toolchain
	// version, main module@version plus VCS revision when stamped).
	GoVersion string `json:"go_version"`
	Build     string `json:"build"`
}

// MutateRequest is the body of POST /mutate: one dataset mutation.
// Op is "add", "remove" or "edit". Add carries one or more graphs in
// Graphs (t/v/e text); remove carries the doomed dataset IDs in IDs;
// edit carries exactly one target ID and one replacement graph with the
// same vertex count (edits change edges, not vertices).
//
// Seq, when non-zero, is the fleet-wide mutation sequence number a
// router assigns: the server applies each seq at most once and replies
// Applied=false to replays, which makes retries after an ambiguous
// failure (timeout, lost ack) safe. Direct callers may leave it 0 at
// the cost of that idempotency.
type MutateRequest struct {
	Op     string  `json:"op"`
	Graphs string  `json:"graphs,omitempty"`
	IDs    []int32 `json:"ids,omitempty"`
	Seq    int64   `json:"seq,omitempty"`
}

// MutateResponse acknowledges a mutation. The ack is durable: it is
// sent only after the mutation is fsynced to the journal (when one is
// configured). Applied=false means the seq was already applied — the
// reply then reports the current epoch and seq, not the original
// counts.
type MutateResponse struct {
	Applied    bool    `json:"applied"`
	Epoch      int64   `json:"epoch"`
	Seq        int64   `json:"seq,omitempty"`
	AddedIDs   []int32 `json:"added_ids,omitempty"`
	RemovedIDs []int32 `json:"removed_ids,omitempty"`
	// Cache maintenance counts: entries whose answers gained the added
	// graphs, entries re-verified after an edit, entries that lost
	// answer IDs, pending window entries patched in place.
	Extended      int `json:"extended,omitempty"`
	Reverified    int `json:"reverified,omitempty"`
	Invalidated   int `json:"invalidated,omitempty"`
	WindowPatched int `json:"window_patched,omitempty"`
}

// WarmRequest is the body of POST /warm: the peer (host:port) to fetch
// a snapshot from.
type WarmRequest struct {
	From string `json:"from"`
}

// WarmResponse reports a completed warm-up: the peer the snapshot came
// from and how many cached queries were installed.
type WarmResponse struct {
	From   string `json:"from"`
	Cached int    `json:"cached"`
	// Epoch is the dataset epoch the warmed snapshot carried — the
	// joiner lands at the peer's epoch, not at 0.
	Epoch int64 `json:"epoch,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// encodeGraphs serialises graphs for a request body.
func encodeGraphs(gs []*graph.Graph) (string, error) {
	data, err := graph.EncodeText(gs)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// decodeGraphs parses a request body's graph text, requiring at least one
// graph.
func decodeGraphs(text string) ([]*graph.Graph, error) {
	gs, err := graph.DecodeText([]byte(text))
	if err != nil {
		return nil, err
	}
	if len(gs) == 0 {
		return nil, fmt.Errorf("no graphs in request")
	}
	return gs, nil
}
