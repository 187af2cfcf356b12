package faultproxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// startProxy runs a proxy in front of target through the real
// Start/Serve/Shutdown lifecycle and tears it down with the test.
func startProxy(t *testing.T, target string, seed int64) *Proxy {
	t.Helper()
	p := New(target, seed)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := p.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return p
}

// echoBackend answers every request with its own path and echoed body.
func echoBackend(t *testing.T) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo-Path", r.URL.Path)
		fmt.Fprintf(w, "echo:%s:%s", r.URL.Path, body)
	}))
	t.Cleanup(s.Close)
	return s
}

// TestProxyTransparentForward pins the no-fault case: method, path,
// query, body and response travel the proxy unchanged.
func TestProxyTransparentForward(t *testing.T) {
	backend := echoBackend(t)
	p := startProxy(t, backend.URL, 1)

	res, err := http.Post("http://"+p.Addr()+"/query?x=1", "text/plain", bytes.NewBufferString("hello"))
	if err != nil {
		t.Fatalf("POST through proxy: %v", err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", res.StatusCode)
	}
	if got, want := string(body), "echo:/query:hello"; got != want {
		t.Errorf("body %q, want %q", got, want)
	}
	if got := res.Header.Get("X-Echo-Path"); got != "/query" {
		t.Errorf("header X-Echo-Path %q, want /query", got)
	}
	if c := p.Counts(); c.Forwarded != 1 || c.Errored != 0 || c.Dropped != 0 {
		t.Errorf("counts %+v, want exactly one forward", c)
	}
}

// TestProxyInjectedErrors sets a full error rate: every request is
// answered with the injected 503 and the backend never sees it.
func TestProxyInjectedErrors(t *testing.T) {
	hits := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
	}))
	defer backend.Close()
	p := startProxy(t, backend.URL, 1)
	p.SetErrorRate(1)

	for i := 0; i < 5; i++ {
		res, err := http.Get("http://" + p.Addr() + "/healthz")
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %d: status %d, want 503", i, res.StatusCode)
		}
	}
	if hits != 0 {
		t.Errorf("backend saw %d requests through a 100%% error rate", hits)
	}
	if c := p.Counts(); c.Errored != 5 {
		t.Errorf("counts %+v, want errored=5", c)
	}
}

// TestProxyDropsConnections sets a full drop rate: the client sees a
// transport error, not an HTTP reply — indistinguishable from the
// backend dying mid-request.
func TestProxyDropsConnections(t *testing.T) {
	backend := echoBackend(t)
	p := startProxy(t, backend.URL, 1)
	p.SetDropRate(1)

	// A fresh connection per attempt: severed connections must not be
	// reused.
	cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 3; i++ {
		res, err := cl.Get("http://" + p.Addr() + "/healthz")
		if err == nil {
			res.Body.Close()
			t.Fatalf("GET %d through a 100%% drop rate returned status %d, want transport error", i, res.StatusCode)
		}
	}
	if c := p.Counts(); c.Dropped != 3 || c.Forwarded != 0 {
		t.Errorf("counts %+v, want dropped=3 forwarded=0", c)
	}
}

// TestProxyLatency injects a delay and measures it end to end.
func TestProxyLatency(t *testing.T) {
	backend := echoBackend(t)
	p := startProxy(t, backend.URL, 1)
	p.SetLatency(80 * time.Millisecond)

	start := time.Now()
	res, err := http.Get("http://" + p.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if took := time.Since(start); took < 80*time.Millisecond {
		t.Errorf("request took %v, want ≥ 80ms injected latency", took)
	}
}

// TestProxyBlackhole swallows requests until the client's own deadline
// fires; the backend never sees them.
func TestProxyBlackhole(t *testing.T) {
	hits := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
	}))
	defer backend.Close()
	p := startProxy(t, backend.URL, 1)
	p.SetBlackhole(true)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.Addr()+"/healthz", nil)
	_, err := http.DefaultClient.Do(req)
	if err == nil {
		t.Fatal("blackholed request returned")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blackholed request failed with %v, want the client's own deadline", err)
	}
	if hits != 0 {
		t.Errorf("backend saw %d requests through a blackhole", hits)
	}
	if c := p.Counts(); c.Blackholed != 1 {
		t.Errorf("counts %+v, want blackholed=1", c)
	}
}

// TestProxySeededStreamIsReproducible pins the drill-reproducibility
// contract: two proxies with the same seed make identical fault
// decisions over the same request sequence.
func TestProxySeededStreamIsReproducible(t *testing.T) {
	backend := echoBackend(t)
	run := func(seed int64) Counts {
		p := startProxy(t, backend.URL, seed)
		p.SetErrorRate(0.5)
		for i := 0; i < 40; i++ {
			res, err := http.Get("http://" + p.Addr() + "/healthz")
			if err != nil {
				t.Fatalf("GET %d: %v", i, err)
			}
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
		}
		return p.Counts()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed produced different fault streams: %+v vs %+v", a, b)
	}
	if a.Errored == 0 || a.Forwarded == 0 {
		t.Errorf("50%% error rate produced a degenerate stream: %+v", a)
	}
}
