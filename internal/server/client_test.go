package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/telemetry"
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

// connCounts is a test server's count of connections opened and closed.
type connCounts struct{ opened, closed atomic.Int32 }

// exchangeClient serves h and returns the server, a client for it on a
// connection pool of its own, read on clock, and the server's connection
// counts.
func exchangeClient(t *testing.T, h http.Handler, clock func() time.Time) (*Client, *httptest.Server, *connCounts) {
	t.Helper()
	s := httptest.NewUnstartedServer(h)
	var counts connCounts
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			counts.opened.Add(1)
		case http.StateClosed:
			counts.closed.Add(1)
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	cl := NewClient(s.URL)
	cl.pool = newConnPool(clock)
	return cl, s, &counts
}

// idleConns is how many connections cl's pool holds to cl's server.
func idleConns(cl *Client) int {
	cl.pool.mu.Lock()
	defer cl.pool.mu.Unlock()
	return len(cl.pool.idle[cl.addr])
}

var okHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{}"))
})

// TestExchangeSkipsClosedIdleConnections: a server that closed the
// client's idle connection is asked again on a fresh one — no error, and
// the server sees the one request, not a retry. The request is a POST,
// which is never re-sent, so only the check at checkout can save it.
func TestExchangeSkipsClosedIdleConnections(t *testing.T) {
	var requests atomic.Int32
	cl, s, _ := exchangeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		okHandler(w, r)
	}), time.Now)
	var out struct{}
	if err := cl.call(context.Background(), http.MethodPost, "/query", []byte("{}"), &out, false); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(cl); n != 1 {
		t.Fatalf("%d idle connections after one call, want 1", n)
	}
	s.CloseClientConnections()
	if err := cl.call(context.Background(), http.MethodPost, "/query", []byte("{}"), &out, false); err != nil {
		t.Fatalf("call after the server closed the idle connection: %v", err)
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("server saw %d requests, want 2", n)
	}
}

// TestExchangeResendsGETOnce: a server that closes a reused connection
// after reading a request, without a reply, costs a GET nothing — it is
// sent once more on a new connection — while a POST on such a connection
// fails, and so does a GET whose connection was new.
func TestExchangeResendsGETOnce(t *testing.T) {
	var sever atomic.Bool
	var requests atomic.Int32
	cl, _, counts := exchangeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if sever.Swap(false) {
			if c, _, err := w.(http.Hijacker).Hijack(); err == nil {
				c.Close()
			}
			return
		}
		okHandler(w, r)
	}), time.Now)
	ctx := context.Background()
	var out struct{}
	get := func() error { return cl.call(ctx, http.MethodGet, "/stats", nil, &out, false) }
	if err := get(); err != nil {
		t.Fatal(err)
	}

	sever.Store(true)
	if err := get(); err != nil {
		t.Errorf("GET on a reused connection closed under it: %v", err)
	}
	if n := requests.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3 (the severed GET re-sent once)", n)
	}
	if n := counts.opened.Load(); n != 2 {
		t.Errorf("%d connections opened, want 2", n)
	}

	sever.Store(true)
	if err := cl.call(ctx, http.MethodPost, "/query", []byte("{}"), &out, false); err == nil {
		t.Error("POST on a reused connection closed under it succeeded; a POST is never re-sent")
	}
	if n := requests.Load(); n != 4 {
		t.Errorf("server saw %d requests, want 4 (the POST sent once)", n)
	}

	if n := idleConns(cl); n != 0 {
		t.Fatalf("%d idle connections after a severed POST, want 0", n)
	}
	sever.Store(true)
	if err := get(); err == nil {
		t.Error("GET on a new connection closed under it succeeded; only a reused one is re-sent")
	}
	if n := requests.Load(); n != 5 {
		t.Errorf("server saw %d requests, want 5 (the GET on a new connection sent once)", n)
	}
}

// TestExchangeCancelMidReply: cancelling the caller's context while a
// reply is half read makes the blocked read return at once with
// context.Canceled, and the connection is closed, not pooled.
func TestExchangeCancelMidReply(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cl, _, _ := exchangeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("first line\n"))
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}), time.Now)
	ctx, cancel := context.WithCancel(context.Background())
	res, err := cl.exchange(ctx, request{method: http.MethodGet, path: "/slow"})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := res.Body.Read(buf); err != nil {
		t.Fatalf("reading the flushed line: %v", err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = io.ReadAll(res.Body)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("read after cancel returned %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("the read took %v to notice the cancel", took)
	}
	res.Body.Close()
	if n := idleConns(cl); n != 0 {
		t.Errorf("%d idle connections after a cancelled reply, want 0", n)
	}
}

// TestExchangeUnfinishedRepliesAreNotPooled: a reply that says
// Connection: close, and one whose body is closed before its end, give
// their connections up; Close does not read the rest of the body. A reply
// read to its end is pooled.
func TestExchangeUnfinishedRepliesAreNotPooled(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<20)
	cl, _, _ := exchangeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
			w.Write([]byte("{}"))
		case "/big":
			w.Write(big)
		default:
			okHandler(w, r)
		}
	}), time.Now)
	ctx := context.Background()
	var out struct{}
	if err := cl.call(ctx, http.MethodGet, "/close", nil, &out, false); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(cl); n != 0 {
		t.Errorf("Connection: close reply: %d idle connections, want 0", n)
	}

	res, err := cl.exchange(ctx, request{method: http.MethodGet, path: "/big"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(res.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if n := idleConns(cl); n != 0 {
		t.Errorf("body closed before its end: %d idle connections, want 0", n)
	}

	if err := cl.call(ctx, http.MethodGet, "/stats", nil, &out, false); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(cl); n != 1 {
		t.Errorf("reply read to its end: %d idle connections, want 1", n)
	}
}

// TestExchangeShedRepliesKeepConnections: a 429 with Retry-After is read
// to its end, so shedding does not cost the client a dial per request.
func TestExchangeShedRepliesKeepConnections(t *testing.T) {
	cl, _, counts := exchangeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		WriteError(w, http.StatusTooManyRequests, errors.New("overloaded"))
	}), time.Now)
	for i := 0; i < 5; i++ {
		var out struct{}
		err := cl.call(context.Background(), http.MethodPost, "/query", []byte("{}"), &out, true)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != 2*time.Second || se.Msg != "overloaded" {
			t.Fatalf("call %d returned %v, want the 429 with its 2s hint and message", i, err)
		}
	}
	if n := counts.opened.Load(); n != 1 {
		t.Errorf("5 shed replies took %d connections, want 1", n)
	}
	if n := idleConns(cl); n != 1 {
		t.Errorf("%d idle connections after shed replies, want 1", n)
	}
}

// TestExchangeReadsChunkedSnapshot: a batch whose text request is over a
// connection's 4 KB write buffer (40 queries, so it goes out in more than
// one write) is answered whole, and a chunked reply — GET /snapshot,
// which announces no length — read to its end hands its connection back
// to the pool: the batch and the snapshot share one dialed connection,
// and the snapshot's bytes are the cache's own.
func TestExchangeReadsChunkedSnapshot(t *testing.T) {
	ds := testDataset(20, 251)
	queries := testWorkload(ds, 40, 252)
	c := newTestCache(ds)
	cl, _, counts := exchangeClient(t, New(c, Options{}).Handler(), time.Now)
	ctx := context.Background()
	rs, err := cl.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(queries) {
		t.Fatalf("%d results for %d queries", len(rs), len(queries))
	}
	res, err := cl.exchange(ctx, request{method: http.MethodGet, path: "/snapshot"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := readBody(res)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || len(res.TransferEncoding) != 1 || res.TransferEncoding[0] != "chunked" {
		t.Fatalf("GET /snapshot: status %d, Transfer-Encoding %v; want a chunked 200", res.StatusCode, res.TransferEncoding)
	}
	body, err := splitChecked(data)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := c.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("snapshot over the wire (%d bytes) differs from the cache's WriteSnapshot (%d bytes)", len(body), want.Len())
	}
	if n := counts.opened.Load(); n != 1 {
		t.Errorf("a batch then a snapshot took %d connections, want 1", n)
	}
	if n := idleConns(cl); n != 1 {
		t.Errorf("%d idle connections after the snapshot was read, want 1", n)
	}
}

// TestExchangeRefusesHeaderInjection: a request id that would end its
// header line is refused before anything is sent.
func TestExchangeRefusesHeaderInjection(t *testing.T) {
	var requests atomic.Int32
	cl, _, _ := exchangeClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		okHandler(w, r)
	}), time.Now)
	for _, id := range []string{"abc\r\nX-Injected: 1", "abc\nX-Injected: 1", "abc\rdef", "nul\x00"} {
		ctx := telemetry.WithRequestID(context.Background(), id)
		var out struct{}
		if err := cl.call(ctx, http.MethodGet, "/stats", nil, &out, false); err == nil {
			t.Errorf("request id %q was sent", id)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("server saw %d requests, want 0", n)
	}
}

// TestExchangeRefusesHTTPS: the client speaks plain HTTP only, and says
// so instead of sending plain text to a TLS port.
func TestExchangeRefusesHTTPS(t *testing.T) {
	cl := NewClient("https://127.0.0.1:1")
	_, err := cl.Stats(context.Background())
	if err == nil || !strings.Contains(err.Error(), "only http://") {
		t.Errorf("Stats over https:// returned %v, want a refusal naming http://", err)
	}
	if err := cl.Healthz(context.Background()); err == nil {
		t.Error("Healthz over https:// succeeded")
	}
}

// TestExchangeClosesIdleConnectionsAfter90s: an idle connection is kept
// until idleConnTimeout, then closed the next time the pool is touched —
// here by a request to another server, as when its own server stopped.
func TestExchangeClosesIdleConnectionsAfter90s(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	clA, _, countsA := exchangeClient(t, okHandler, clock)
	clB, _, _ := exchangeClient(t, okHandler, clock)
	clB.pool = clA.pool

	ctx := context.Background()
	if err := clA.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	now.Add(int64(idleConnTimeout - time.Second))
	if err := clB.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(clA); n != 1 {
		t.Fatalf("a connection idle for %v: %d pooled, want 1", idleConnTimeout-time.Second, n)
	}
	now.Add(int64(2 * time.Second))
	if err := clB.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if n := idleConns(clA); n != 0 {
		t.Errorf("a connection idle for %v: %d pooled, want 0", idleConnTimeout+time.Second, n)
	}
	if n := idleConns(clB); n != 1 {
		t.Errorf("the fresh connection to the other server: %d pooled, want 1", n)
	}
	for deadline := time.Now().Add(5 * time.Second); countsA.closed.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the expired connection was not closed")
		}
	}
}
