package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler answers with failStatus (or severs the connection when
// failStatus is 0) for the first fails requests, then 200 with an empty
// JSON object.
type flakyHandler struct {
	fails      int32
	failStatus int
	retryAfter string
	attempts   atomic.Int32
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := h.attempts.Add(1)
	if n <= h.fails {
		if h.failStatus == 0 {
			// Transport-level failure: sever without a reply.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		if h.retryAfter != "" {
			w.Header().Set("Retry-After", h.retryAfter)
		}
		w.WriteHeader(h.failStatus)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "injected"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{}"))
}

func flakyClient(t *testing.T, h *flakyHandler, opts ClientOptions) *Client {
	t.Helper()
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	if opts.RetryBaseDelay == 0 {
		opts.RetryBaseDelay = time.Millisecond
	}
	if opts.RetryMaxDelay == 0 {
		opts.RetryMaxDelay = 5 * time.Millisecond
	}
	return NewClientWith(s.URL, opts)
}

// TestClientRetriesShedReplies pins the always-retryable class: 429 and
// 503 mean the server refused the work before starting it, so even a
// non-idempotent request may retry them.
func TestClientRetriesShedReplies(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		h := &flakyHandler{fails: 2, failStatus: status}
		cl := flakyClient(t, h, ClientOptions{MaxRetries: 3})
		var out struct{}
		// idempotent=false: the strictest case must still retry sheds.
		if err := cl.call(context.Background(), http.MethodPost, "/query", []byte("{}"), &out, false); err != nil {
			t.Fatalf("status %d: call failed after retries: %v", status, err)
		}
		if got := h.attempts.Load(); got != 3 {
			t.Errorf("status %d: server saw %d attempts, want 3 (2 sheds + 1 success)", status, got)
		}
	}
}

// TestClientIdempotencyGatesRetries pins the ambiguous class: transport
// errors and non-shed 5xx replies may have executed the work, so only
// idempotent requests retry them.
func TestClientIdempotencyGatesRetries(t *testing.T) {
	cases := []struct {
		name       string
		failStatus int // 0 = sever the connection
	}{
		{"transport error", 0},
		{"500 reply", http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Non-idempotent: exactly one attempt, the error surfaces.
			h := &flakyHandler{fails: 1, failStatus: tc.failStatus}
			cl := flakyClient(t, h, ClientOptions{MaxRetries: 3})
			var out struct{}
			if err := cl.call(context.Background(), http.MethodPost, "/query", []byte("{}"), &out, false); err == nil {
				t.Fatal("non-idempotent call retried an ambiguous failure")
			}
			if got := h.attempts.Load(); got != 1 {
				t.Errorf("non-idempotent call made %d attempts, want 1", got)
			}

			// Idempotent: the same failure is retried to success.
			h = &flakyHandler{fails: 1, failStatus: tc.failStatus}
			cl = flakyClient(t, h, ClientOptions{MaxRetries: 3})
			if err := cl.call(context.Background(), http.MethodPost, "/query", []byte("{}"), &out, true); err != nil {
				t.Fatalf("idempotent call failed after retries: %v", err)
			}
			if got := h.attempts.Load(); got != 2 {
				t.Errorf("idempotent call made %d attempts, want 2", got)
			}
		})
	}
}

// TestParseRetryAfterForms pins both header forms RFC 9110 allows:
// delay-seconds and HTTP-date. Proxies in front of a gcserved commonly
// rewrite the hint into a date, so the client must not drop it.
func TestParseRetryAfterForms(t *testing.T) {
	future := time.Now().Add(10 * time.Second)
	past := time.Now().Add(-10 * time.Second)
	cases := []struct {
		header   string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"3", 3 * time.Second, 3 * time.Second},
		{"0", 0, 0},
		{"-5", 0, 0},         // negative seconds: no hint
		{"not-a-date", 0, 0}, // unparseable: no hint
		{future.UTC().Format(http.TimeFormat), 8 * time.Second, 10 * time.Second},
		{past.UTC().Format(http.TimeFormat), 0, 0}, // elapsed in flight: no hint
	}
	for _, c := range cases {
		res := &http.Response{Header: http.Header{}}
		if c.header != "" {
			res.Header.Set("Retry-After", c.header)
		}
		got := parseRetryAfter(res)
		if got < c.min || got > c.max {
			t.Errorf("parseRetryAfter(%q) = %v, want in [%v, %v]", c.header, got, c.min, c.max)
		}
	}
}

// TestClientRetryDelayHonorsRetryAfter pins the backoff arithmetic
// without sleeping: a server's Retry-After hint wins whenever it is
// longer than the jittered exponential step, and a 4xx other than 429
// is never retried.
func TestClientRetryDelayHonorsRetryAfter(t *testing.T) {
	cl := NewClientWith("127.0.0.1:1", ClientOptions{
		MaxRetries: 3, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 4 * time.Millisecond,
	})

	shed := &StatusError{Code: http.StatusTooManyRequests, Status: "429", RetryAfter: 3 * time.Second}
	delay, ok := cl.retryDelay(shed, 0, false)
	if !ok {
		t.Fatal("429 not retryable")
	}
	if delay < 3*time.Second {
		t.Errorf("delay %v ignores the 3s Retry-After hint", delay)
	}

	// Without a hint the jittered step applies: 0 < delay ≤ cap.
	noHint := &StatusError{Code: http.StatusServiceUnavailable, Status: "503"}
	for attempt := 0; attempt < 6; attempt++ {
		delay, ok := cl.retryDelay(noHint, attempt, false)
		if !ok {
			t.Fatalf("503 not retryable at attempt %d", attempt)
		}
		if delay <= 0 || delay > 4*time.Millisecond {
			t.Errorf("attempt %d: delay %v outside (0, RetryMaxDelay]", attempt, delay)
		}
	}

	if _, ok := cl.retryDelay(&StatusError{Code: http.StatusBadRequest, Status: "400"}, 0, true); ok {
		t.Error("a 400 reply was deemed retryable")
	}
}

// TestClientPerAttemptTimeout pins that RequestTimeout bounds each
// attempt rather than the whole call: a hung server fails the attempt at
// the timeout even though the caller's context is unbounded.
func TestClientPerAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer s.Close()
	cl := NewClientWith(s.URL, ClientOptions{RequestTimeout: 50 * time.Millisecond})

	start := time.Now()
	var out struct{}
	err := cl.call(context.Background(), http.MethodGet, "/stats", nil, &out, false)
	if err == nil {
		t.Fatal("call against a hung server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call failed with %v, want the per-attempt deadline", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("call took %v; the 50ms per-attempt timeout did not bound it", took)
	}
}

// TestClientReusesConnections: rounds of concurrent requests from one
// Client to one server reuse the connections the first round opened. A
// barrier in the handler holds each round until all of its requests are
// in, so every round needs that many connections at once. With two idle
// connections kept per server, each round after the first dialed all but
// two of its connections anew.
func TestClientReusesConnections(t *testing.T) {
	const concurrent, rounds = 8, 3
	ds := testDataset(20, 231)
	queries := testWorkload(ds, concurrent, 232)
	h := New(newTestCache(ds), Options{}).Handler()
	var barrier sync.WaitGroup
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		barrier.Done()
		barrier.Wait()
		h.ServeHTTP(w, r)
	}))
	var opened atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)

	for round := 1; round <= rounds; round++ {
		barrier.Add(concurrent)
		var wg sync.WaitGroup
		for _, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.Query(context.Background(), q); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}()
		}
		wg.Wait()
		if got := opened.Load(); got != concurrent {
			t.Fatalf("after round %d the client had opened %d connections, want %d", round, got, concurrent)
		}
	}
}
