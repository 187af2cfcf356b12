// Package faultproxy is the serving tier's chaos harness: an HTTP
// reverse proxy that sits between a router and one gcserved backend and
// injects faults on command — injected 5xx replies, added latency,
// severed connections, or a full blackhole. Tests park a misbehaving
// proxy in front of a healthy backend to prove the router's load
// management (circuit breakers, bounded queues, overload shedding)
// absorbs the failures without failing client requests.
//
// Fault knobs are runtime-adjustable and concurrency-safe, so a test can
// flip a backend between flaky and healthy mid-run. The random stream is
// seeded, so a drill is reproducible.
package faultproxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counts are the proxy's lifetime fault counters.
type Counts struct {
	Forwarded  int64 // requests passed through to the target
	Errored    int64 // requests answered with an injected 503
	Dropped    int64 // requests whose connection was severed
	Blackholed int64 // requests swallowed by blackhole mode
}

// Proxy is one chaos proxy in front of one target backend.
type Proxy struct {
	target string
	hc     *http.Client
	lis    net.Listener
	hs     *http.Server

	mu  sync.Mutex
	rng *rand.Rand

	errorRate atomic.Uint64 // float64 bits: fraction of requests 503ed
	dropRate  atomic.Uint64 // float64 bits: fraction of requests severed
	latencyNs atomic.Int64  // injected delay before any verdict
	blackhole atomic.Bool   // swallow every request until the client gives up

	forwarded  atomic.Int64
	errored    atomic.Int64
	dropped    atomic.Int64
	blackholed atomic.Int64
}

// New returns a proxy for the backend at target — a "host:port" pair or
// a full "http://..." base URL. The seed fixes the fault stream so a
// drill is reproducible.
func New(target string, seed int64) *Proxy {
	base := target
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Proxy{
		target: strings.TrimRight(base, "/"),
		hc:     &http.Client{},
		rng:    rand.New(rand.NewPCG(uint64(seed), uint64(seed)^0x9e3779b97f4a7c15)),
	}
}

// SetErrorRate sets the fraction of requests answered with an injected
// 503 (clamped to [0,1]).
func (p *Proxy) SetErrorRate(f float64) { p.errorRate.Store(math.Float64bits(clamp01(f))) }

// ErrorRate returns the current injected-503 fraction.
func (p *Proxy) ErrorRate() float64 { return math.Float64frombits(p.errorRate.Load()) }

// SetDropRate sets the fraction of requests whose connection is severed
// without a reply (clamped to [0,1]) — the client sees a transport
// error, exactly like a backend dying mid-request.
func (p *Proxy) SetDropRate(f float64) { p.dropRate.Store(math.Float64bits(clamp01(f))) }

// DropRate returns the current connection-drop fraction.
func (p *Proxy) DropRate() float64 { return math.Float64frombits(p.dropRate.Load()) }

// SetLatency sets the delay injected before every request's verdict.
func (p *Proxy) SetLatency(d time.Duration) { p.latencyNs.Store(int64(d)) }

// Latency returns the injected delay.
func (p *Proxy) Latency() time.Duration { return time.Duration(p.latencyNs.Load()) }

// SetBlackhole toggles blackhole mode: requests are accepted and never
// answered, holding the connection until the client's own deadline.
func (p *Proxy) SetBlackhole(on bool) { p.blackhole.Store(on) }

// Counts returns the lifetime fault counters.
func (p *Proxy) Counts() Counts {
	return Counts{
		Forwarded:  p.forwarded.Load(),
		Errored:    p.errored.Load(),
		Dropped:    p.dropped.Load(),
		Blackholed: p.blackholed.Load(),
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// ---- Lifecycle (mirrors server.Server) ----------------------------------

// Start binds the listen address. It does not serve yet — call Serve,
// typically on its own goroutine.
func (p *Proxy) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("faultproxy: listen %s: %w", addr, err)
	}
	p.lis = lis
	p.hs = &http.Server{Handler: p}
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (p *Proxy) Serve() error {
	if err := p.hs.Serve(p.lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown stops accepting and closes the listener. In-flight chaos
// (blackholed requests in particular) is abandoned with the connections.
func (p *Proxy) Shutdown(ctx context.Context) error {
	var errs []error
	if p.hs != nil {
		err := p.hs.Shutdown(ctx)
		if err != nil {
			// Blackholed handlers block on their request context, which
			// only dies with its connection: force-close so they unwind.
			p.hs.Close()
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			errs = append(errs, fmt.Errorf("faultproxy: http shutdown: %w", err))
		}
	}
	if p.lis != nil {
		if err := p.lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("faultproxy: closing listener: %w", err))
		}
	}
	return errors.Join(errs...)
}

// ---- Request handling ----------------------------------------------------

// roll draws one uniform [0,1) variate from the seeded stream.
func (p *Proxy) roll() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64()
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.blackhole.Load() {
		p.blackholed.Add(1)
		<-r.Context().Done()
		return
	}
	if d := p.Latency(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	roll := p.roll()
	dr, er := p.DropRate(), p.ErrorRate()
	switch {
	case roll < dr:
		p.dropped.Add(1)
		p.sever(w)
	case roll < dr+er:
		p.errored.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"faultproxy: injected failure"}`+"\n")
	default:
		p.forward(w, r)
	}
}

// sever kills the client's connection without a reply, so the client
// sees a transport error (EOF / connection reset) — indistinguishable
// from the backend dying mid-request.
func (p *Proxy) sever(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// No hijacking (e.g. HTTP/2): abort the handler, which tears the
	// stream down without a response.
	panic(http.ErrAbortHandler)
}

// forward relays the request to the target and the response back.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request) {
	p.forwarded.Add(1)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeProxyError(w, err)
		return
	}
	req.Header = r.Header.Clone()
	res, err := p.hc.Do(req)
	if err != nil {
		writeProxyError(w, err)
		return
	}
	defer res.Body.Close()
	h := w.Header()
	for k, vs := range res.Header {
		h[k] = vs
	}
	w.WriteHeader(res.StatusCode)
	io.Copy(w, res.Body)
}

func writeProxyError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadGateway)
	json.NewEncoder(w).Encode(map[string]string{"error": "faultproxy: " + err.Error()})
}
