package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"graphcache/internal/graph"
)

// ClientOptions tune a Client's resilience. The zero value reproduces
// the classic behavior: one attempt per call, bounded by a 5-minute
// request timeout.
type ClientOptions struct {
	// RequestTimeout bounds each attempt (default 5 minutes). The
	// caller's context still bounds the call as a whole, retries and
	// backoff included.
	RequestTimeout time.Duration
	// MaxRetries is how many times one call may be re-attempted after a
	// retryable failure (default 0 — fail fast; the router tier has its
	// own failover and must not multiply attempts underneath it).
	// Retries back off exponentially with full jitter from
	// RetryBaseDelay up to RetryMaxDelay and honor a server's
	// Retry-After hint when it is longer. What is retryable depends on
	// idempotency: 429 and 503 shed replies are always retryable — the
	// server refused the work before starting it — while transport
	// errors and other 5xx replies (the work may have executed) are
	// retried only for idempotent requests, so non-idempotent work is
	// never attempted twice.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 100ms).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps one backoff step (default 2s); a longer
	// Retry-After hint still wins.
	RetryMaxDelay time.Duration
	// WireBinary makes the client send its query graphs as binary frames
	// (Content-Type: application/x-gc-binary) instead of the JSON
	// envelope around t/v/e text — a quarter of the bytes and cheaper to
	// code. Replies are JSON either way, and answers are identical.
	WireBinary bool
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Minute
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 100 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 2 * time.Second
	}
	return o
}

// Client is a Go client for a gcserved or gcrouter instance, shared by
// tests, by `gcquery -server`, by the router tier and by applications.
// It is safe for concurrent use; each method maps to one API endpoint.
type Client struct {
	opts   ClientOptions
	pool   *connPool
	addr   string // host:port dialed
	host   string // the Host header
	prefix string // the base URL's path, in front of every request path
	err    error  // why the base URL cannot be served; every call returns it
}

// StatusError is a non-2xx HTTP reply from a server, carrying the status
// code and the server's error message. Errors returned by Query,
// QueryBatch, Stats and Healthz wrap one whenever the server itself
// replied; transport failures (connection refused, timeouts) do not.
type StatusError struct {
	Code   int    // HTTP status code
	Status string // e.g. "400 Bad Request"
	Msg    string // the server's {"error": ...} message, if any
	// RetryAfter is the server's Retry-After hint (0 when absent) — an
	// overloaded serving tier sheds with 429/503 plus this hint, and
	// retrying clients honor it.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return e.Status + ": " + e.Msg
	}
	return e.Status
}

// IsBackendDown reports whether err means the backend itself is unusable —
// a transport failure or a 5xx reply — as opposed to a 4xx error the
// request caused. The router fails over on the former and propagates the
// latter to the caller.
func IsBackendDown(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// NewClient returns a client for the server at addr — a "host:port" pair
// or a full "http://..." base URL — with default options.
func NewClient(addr string) *Client { return NewClientWith(addr, ClientOptions{}) }

// NewClientWith returns a client for the server at addr with explicit
// resilience options. Only http:// servers are supported: a client for any
// other scheme fails every call with an error saying so.
func NewClientWith(addr string, opts ClientOptions) *Client {
	cl := &Client{opts: opts.withDefaults(), pool: conns}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(strings.TrimRight(base, "/"))
	switch {
	case err != nil:
		cl.err = fmt.Errorf("client: server address %q: %w", addr, err)
	case u.Scheme != "http":
		cl.err = fmt.Errorf("client: server address %q: only http:// servers are supported", addr)
	case u.Host == "":
		cl.err = fmt.Errorf("client: server address %q has no host", addr)
	default:
		cl.host, cl.prefix, cl.addr = u.Host, u.EscapedPath(), u.Host
		if u.Port() == "" {
			cl.addr = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	return cl
}

// Query answers one graph query through POST /query, which the server
// runs as a run of one on the request.
func (cl *Client) Query(ctx context.Context, q *graph.Graph) (QueryResponse, error) {
	return cl.query(ctx, q, false)
}

// QueryTrace answers one graph query like Query, additionally asking the
// server for its span breakdown (?debug=trace): the response's Trace
// carries the request id and every span each hop recorded. The caller's
// context request id (telemetry.WithRequestID) is propagated; without
// one the server mints an id itself.
func (cl *Client) QueryTrace(ctx context.Context, q *graph.Graph) (QueryResponse, error) {
	return cl.query(ctx, q, true)
}

// query posts one graph to POST /query and decodes the reply. Graph
// queries are idempotent — answers depend only on the query (the pruning
// rules are sound) — so the full retry policy applies.
func (cl *Client) query(ctx context.Context, q *graph.Graph, trace bool) (QueryResponse, error) {
	payload, ct, err := cl.encodeGraphsPayload([]*graph.Graph{q}, true)
	if err != nil {
		return QueryResponse{}, err
	}
	var resp QueryResponse
	err = cl.callWith(ctx, http.MethodPost, tracePath("/query", trace), payload, ct, &resp, true)
	return resp, err
}

// tracePath is path, asking for span breakdowns when trace is set.
func tracePath(path string, trace bool) string {
	if trace {
		return path + "?debug=trace"
	}
	return path
}

// QueryBatch answers a batch of queries through POST /querybatch; results
// align with qs.
func (cl *Client) QueryBatch(ctx context.Context, qs []*graph.Graph) ([]QueryResponse, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	payload, ct, err := cl.encodeGraphsPayload(qs, false)
	if err != nil {
		return nil, err
	}
	return cl.queryBatch(ctx, payload, ct, len(qs), false)
}

// QueryBatchFrame is QueryBatch over a ready binary frame of n graphs,
// posted as is whatever the client's wire format: how a router forwards
// the graph bodies its clients sent without decoding them. With trace set
// the server is asked for every result's span breakdown (?debug=trace).
func (cl *Client) QueryBatchFrame(ctx context.Context, frame []byte, n int, trace bool) ([]QueryResponse, error) {
	return cl.queryBatch(ctx, frame, ContentTypeBinary, n, trace)
}

// queryBatch posts a batch request body of n queries to POST /querybatch,
// under the full retry policy as query does.
func (cl *Client) queryBatch(ctx context.Context, payload []byte, ct string, n int, trace bool) ([]QueryResponse, error) {
	resp := BatchResponse{Results: make([]QueryResponse, 0, n)} // the decoder fills it in place
	if err := cl.callWith(ctx, http.MethodPost, tracePath("/querybatch", trace), payload, ct, &resp, true); err != nil {
		return nil, err
	}
	if len(resp.Results) != n {
		return nil, fmt.Errorf("client: server returned %d results for %d queries", len(resp.Results), n)
	}
	return resp.Results, nil
}

// encodeGraphsPayload builds a query request body in the client's wire
// format: a binary graph frame, or the JSON envelope around t/v/e text.
func (cl *Client) encodeGraphsPayload(qs []*graph.Graph, single bool) ([]byte, string, error) {
	if cl.opts.WireBinary {
		data, err := graph.EncodeBinary(qs)
		if err != nil {
			return nil, "", fmt.Errorf("client: encoding query: %w", err)
		}
		return data, ContentTypeBinary, nil
	}
	text, err := encodeGraphs(qs)
	if err != nil {
		return nil, "", fmt.Errorf("client: encoding query: %w", err)
	}
	var body any
	if single {
		body = QueryRequest{Graph: text}
	} else {
		body = BatchRequest{Graphs: text}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, "", fmt.Errorf("client: encoding request: %w", err)
	}
	return payload, contentTypeJSON, nil
}

// Stats fetches the server's lifetime totals and serving summary.
func (cl *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := cl.call(ctx, http.MethodGet, "/stats", nil, &resp, true)
	return resp, err
}

// Warm asks the server to replace its cache with a snapshot fetched
// from peer (POST /warm). Not idempotent as far as retries go: a warm
// swaps the cache underneath the serving gate, and a slow first attempt
// may still land, so the client never re-sends one on an ambiguous
// failure.
func (cl *Client) Warm(ctx context.Context, peer string) (WarmResponse, error) {
	var resp WarmResponse
	err := cl.post(ctx, "/warm", WarmRequest{From: peer}, &resp, false)
	return resp, err
}

// Mutate submits one dataset mutation (POST /mutate). With a non-zero
// Seq the request is idempotent — the server applies each seq at most
// once — so it may be retried through the full retry policy; a Seq of 0
// is never retried on an ambiguous failure, because a slow first
// attempt may still apply.
func (cl *Client) Mutate(ctx context.Context, req MutateRequest) (MutateResponse, error) {
	var resp MutateResponse
	err := cl.post(ctx, "/mutate", req, &resp, req.Seq != 0)
	return resp, err
}

// Healthz reports whether the server answers its health check. It never
// retries: a health probe's job is to observe one attempt.
func (cl *Client) Healthz(ctx context.Context) error {
	_, err := cl.HealthzEpoch(ctx)
	return err
}

// HealthzEpoch is Healthz plus the server's dataset epoch, read from the
// X-GC-Epoch reply header — so the router's health probes double as its
// epoch feed without extra round-trips. The epoch is 0 when the header
// is absent (a pre-mutation server), and is reported even alongside a
// failing health status when the server sent it.
func (cl *Client) HealthzEpoch(ctx context.Context) (int64, error) {
	res, err := cl.exchange(ctx, request{method: http.MethodGet, path: "/healthz"})
	if err != nil {
		return 0, fmt.Errorf("client: GET /healthz: %w", err)
	}
	defer res.Body.Close()
	io.Copy(io.Discard, res.Body)
	epoch, _ := strconv.ParseInt(res.Header.Get(epochHeader), 10, 64)
	if res.StatusCode != http.StatusOK {
		return epoch, fmt.Errorf("client: healthz: %w", &StatusError{Code: res.StatusCode, Status: res.Status})
	}
	return epoch, nil
}

func (cl *Client) post(ctx context.Context, path string, body, out any, idempotent bool) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	return cl.call(ctx, http.MethodPost, path, payload, out, idempotent)
}

func (cl *Client) call(ctx context.Context, method, path string, payload []byte, out any, idempotent bool) error {
	return cl.callWith(ctx, method, path, payload, contentTypeJSON, out, idempotent)
}

// callWith runs one API call with the retry policy: up to MaxRetries
// re-attempts with jittered exponential backoff, honoring Retry-After,
// retrying only what retryDelay deems safe for this request's
// idempotency. ct is the request body's content type.
func (cl *Client) callWith(ctx context.Context, method, path string, payload []byte, ct string, out any, idempotent bool) error {
	for attempt := 0; ; attempt++ {
		err := cl.once(ctx, method, path, payload, ct, out)
		if err == nil || attempt >= cl.opts.MaxRetries || ctx.Err() != nil {
			return err
		}
		delay, ok := cl.retryDelay(err, attempt, idempotent)
		if !ok {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(delay):
		}
	}
}

// retryDelay decides whether err warrants another attempt and how long
// to back off first. 429 and 503 mean the server shed the request
// before doing its work, so any request may retry them; transport
// errors and other 5xx replies are ambiguous — the work may have
// executed — and only idempotent requests retry those.
func (cl *Client) retryDelay(err error, attempt int, idempotent bool) (time.Duration, bool) {
	var retryAfter time.Duration
	var se *StatusError
	if errors.As(err, &se) {
		switch {
		case se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable:
			retryAfter = se.RetryAfter
		case se.Code >= 500 && idempotent:
			retryAfter = se.RetryAfter
		default:
			return 0, false
		}
	} else if !idempotent {
		return 0, false
	}
	delay := cl.backoff(attempt)
	if retryAfter > delay {
		delay = retryAfter
	}
	return delay, true
}

// backoff is one jittered exponential step: uniform over (0, base·2^attempt],
// capped at RetryMaxDelay. Full jitter spreads a thundering herd of
// retriers instead of synchronising them.
func (cl *Client) backoff(attempt int) time.Duration {
	d := cl.opts.RetryBaseDelay
	for i := 0; i < attempt && d < cl.opts.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > cl.opts.RetryMaxDelay {
		d = cl.opts.RetryMaxDelay
	}
	return rand.N(d) + 1
}

// once runs a single attempt, bounded by RequestTimeout.
func (cl *Client) once(ctx context.Context, method, path string, payload []byte, ct string, out any) error {
	req := request{method: method, path: path, body: payload}
	if payload != nil {
		req.contentType = ct
	}
	res, err := cl.exchange(ctx, req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s %s: %w", method, path, statusError(res))
	}
	body, err := readBody(res)
	if err != nil {
		return fmt.Errorf("client: %s %s: reading reply: %w", method, path, err)
	}
	if err := decodeReply(body, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// decodeReply decodes a 200 reply's body into out: the result envelopes by
// hand (see results.go), anything else with encoding/json.
func decodeReply(body []byte, out any) error {
	switch v := out.(type) {
	case *QueryResponse:
		return decodeQueryResponse(body, v)
	case *BatchResponse:
		return decodeBatchResponse(body, v)
	}
	return json.Unmarshal(body, out)
}

// maxErrorBody bounds how much of an error reply is read for its message.
const maxErrorBody = 64 << 10

// statusError is a non-2xx reply as a StatusError, its message read from
// the body's {"error": ...} envelope. The body is read to its end, so the
// connection of a shed reply goes back to the pool; one that fails to read
// leaves the message empty, since the status is the error.
func statusError(res *http.Response) *StatusError {
	se := &StatusError{Code: res.StatusCode, Status: res.Status, RetryAfter: parseRetryAfter(res)}
	body, _ := io.ReadAll(io.LimitReader(res.Body, maxErrorBody))
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil {
		se.Msg = e.Error
	}
	return se
}

// readBody reads a reply body whole: by readSized when it announced a
// length, which both tiers' result envelopes carry, else into a buffer
// that grows from room for a 32-result batch.
func readBody(res *http.Response) ([]byte, error) {
	if n := res.ContentLength; n >= 0 && n <= 64<<20 {
		return readSized(res.Body, n)
	}
	buf := bytes.NewBuffer(make([]byte, 0, 16<<10))
	_, err := buf.ReadFrom(res.Body)
	return buf.Bytes(), err
}

// parseRetryAfter reads a reply's Retry-After header in either form RFC
// 9110 §10.2.3 allows: delay-seconds, or an HTTP-date (our own servers
// send seconds, but the hint also arrives from proxies and load
// balancers in front of them). A date in the past — the delay already
// elapsed in flight — and an unparseable value both mean "no hint".
func parseRetryAfter(res *http.Response) time.Duration {
	v := res.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := time.Until(t)
	if d < 0 {
		return 0
	}
	return d
}
