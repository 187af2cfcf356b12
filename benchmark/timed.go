package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"graphcache"
)

// Span names. A span's parent follows from its name: the method.* spans
// sit under the core span of the same lane and id, every other span is
// a root.
const (
	spanRequest  = "client.request"
	spanMutate   = "client.mutate"
	spanQuery    = "core.query"
	spanMutation = "core.mutation"
	spanFilter   = "method.filter"
	spanVerify   = "method.verify"
	spanApply    = "method.apply_mutation"
)

var spanParent = map[string]string{spanFilter: spanQuery, spanVerify: spanQuery, spanApply: spanMutation}

// span is one timed interval at a layer boundary. Lane and name index
// small tables and times are offsets from the recorder's origin, so the
// preallocated buffer holds no pointers for the collector to walk while
// a lane runs.
type span struct {
	lane, name uint8
	id         int32 // the operation's index, shared by all spans of one operation
	start, end int64 // ns since the recorder's origin
}

// recorder collects spans in memory; write puts them out at exit.
type recorder struct {
	origin time.Time
	lanes  []string
	names  []string
	mu     sync.Mutex
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func intern(table *[]string, s string) uint8 {
	for i, t := range *table {
		if t == s {
			return uint8(i)
		}
	}
	*table = append(*table, s)
	return uint8(len(*table) - 1)
}

func (r *recorder) lane(name string) uint8 { return intern(&r.lanes, name) }
func (r *recorder) name(name string) uint8 { return intern(&r.names, name) }

func (r *recorder) add(lane, name uint8, id int32, start, end time.Time) {
	s := span{lane, name, id, int64(start.Sub(r.origin)), int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write emits the spans as JSON lines.
func (r *recorder) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		name := r.names[s.name]
		if err := enc.Encode(struct {
			Lane    string `json:"lane"`
			Name    string `json:"name"`
			ID      int32  `json:"id"`
			Parent  string `json:"parent,omitempty"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{r.lanes[s.lane], name, s.id, spanParent[name], s.start, s.end}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// timedMethod decorates a Method M with a span around every call the
// engine makes into it. cur names the operation in flight — the lane
// that owns the cache has one caller, so one counter serves.
type timedMethod struct {
	graphcache.Method
	rec                    *recorder
	lane                   uint8
	filter, verify, applyN uint8
	cur                    *atomic.Int32
}

func (t *timedMethod) Filter(q *graphcache.Graph) []int32 {
	start := time.Now()
	out := t.Method.Filter(q)
	t.rec.add(t.lane, t.filter, t.cur.Load(), start, time.Now())
	return out
}

func (t *timedMethod) Verify(q *graphcache.Graph, id int32) bool {
	start := time.Now()
	ok := t.Method.Verify(q, id)
	t.rec.add(t.lane, t.verify, t.cur.Load(), start, time.Now())
	return ok
}

func (t *timedMethod) verifyBatch(q *graphcache.Graph, ids []int32) []bool {
	start := time.Now()
	out := t.Method.(batchVerifier).VerifyBatch(q, ids)
	t.rec.add(t.lane, t.verify, t.cur.Load(), start, time.Now())
	return out
}

func (t *timedMethod) applyMutation(added, edited []*graphcache.Graph, removed []int32) {
	start := time.Now()
	t.Method.(graphcache.DynamicMethod).ApplyDatasetMutation(added, edited, removed)
	t.rec.add(t.lane, t.applyN, t.cur.Load(), start, time.Now())
}

// batchVerifier is the engine's optional Method extension for methods
// that verify a candidate set on their own worker pool; the root
// package has no alias for it.
type batchVerifier interface {
	VerifyBatch(q *graphcache.Graph, ids []int32) []bool
}

// The engine discovers DynamicMethod and BatchVerifier by type
// assertion, so the decorator must have exactly the optional methods of
// what it wraps: one variant per combination.
type (
	timedDyn      struct{ *timedMethod }
	timedBatch    struct{ *timedMethod }
	timedDynBatch struct{ *timedMethod }
)

func (t timedDyn) ApplyDatasetMutation(added, edited []*graphcache.Graph, removed []int32) {
	t.applyMutation(added, edited, removed)
}
func (t timedDynBatch) ApplyDatasetMutation(added, edited []*graphcache.Graph, removed []int32) {
	t.applyMutation(added, edited, removed)
}
func (t timedBatch) VerifyBatch(q *graphcache.Graph, ids []int32) []bool {
	return t.verifyBatch(q, ids)
}
func (t timedDynBatch) VerifyBatch(q *graphcache.Graph, ids []int32) []bool {
	return t.verifyBatch(q, ids)
}

// decorate wraps m so that every Filter, Verify, VerifyBatch and
// ApplyDatasetMutation call is recorded as a span of lane under the
// operation id cur holds at the time.
func decorate(m graphcache.Method, rec *recorder, lane string, cur *atomic.Int32) graphcache.Method {
	t := &timedMethod{
		Method: m, rec: rec, lane: rec.lane(lane), cur: cur,
		filter: rec.name(spanFilter), verify: rec.name(spanVerify), applyN: rec.name(spanApply),
	}
	_, dyn := m.(graphcache.DynamicMethod)
	_, batch := m.(batchVerifier)
	switch {
	case dyn && batch:
		return timedDynBatch{t}
	case dyn:
		return timedDyn{t}
	case batch:
		return timedBatch{t}
	}
	return t
}
