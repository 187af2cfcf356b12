package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header carrying a request's id across the
// fleet: generated at the front door (gcrouter, or gcserved when hit
// directly), echoed on responses, and propagated on every backend
// dispatch so one slow query can be followed router→queue→server→
// probe→verify across process boundaries.
const RequestIDHeader = "X-GC-Request-Id"

// requestIDKey is the context key request ids travel under.
type requestIDKey struct{}

// idCounter disambiguates ids minted within the same process.
var idCounter atomic.Uint64

// NewRequestID mints a 16-hex-char request id: 6 random bytes plus a
// 2-byte process-local counter, unique enough to grep a fleet's logs by.
func NewRequestID() string {
	var b [8]byte
	_, _ = rand.Read(b[:6])
	n := idCounter.Add(1)
	b[6] = byte(n >> 8)
	b[7] = byte(n)
	return hex.EncodeToString(b[:])
}

// WithRequestID returns a context carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's request id, or "" if none is set.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Span is one named, timed step of a request's life: a wire decode, a
// queue wait, a dispatch to one backend, an engine stage. Durations are
// nanoseconds; Name is a short stable identifier (e.g. "probe",
// "dispatch:127.0.0.1:9001").
type Span struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// Trace is the span breakdown returned inline by /query?debug=trace: the
// request id the front door minted plus every span each hop recorded.
// Hops prepend their own spans, so a router-fronted trace reads
// router spans first, then the backend's.
type Trace struct {
	RequestID string `json:"request_id"`
	Spans     []Span `json:"spans"`
}

// Add appends a span.
func (t *Trace) Add(name string, d time.Duration) {
	t.Spans = append(t.Spans, Span{Name: name, DurNS: d.Nanoseconds()})
}

// Prepend inserts spans before the existing ones — used by the router to
// put its own decode/dispatch spans ahead of the backend's engine spans.
func (t *Trace) Prepend(spans ...Span) {
	t.Spans = append(spans, t.Spans...)
}
