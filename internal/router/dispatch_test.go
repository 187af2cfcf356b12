package router

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/server"
	"graphcache/internal/workload"
)

// TestFailover pins the router's one dispatch loop: which backend
// answers, how many attempts are made, and what routed and retried count
// — per query carried, for singles and batch groups alike.
func TestFailover(t *testing.T) {
	const n = 5 // queries riding each call
	down := errors.New("connection refused")
	rejected := &server.StatusError{Code: http.StatusBadRequest, Status: "400 Bad Request"}
	for _, tc := range []struct {
		name     string
		attempts []error // one per expected call, in order
		wantErr  error
		moved    bool // the answering backend is not the assigned one
		retried  int64
	}{
		{"success first try", []error{nil}, nil, false, 0},
		{"retryable then success", []error{down, nil}, nil, true, n},
		{"non-retryable", []error{rejected}, rejected, false, 0},
		{"all backends exhausted", []error{down, down}, down, false, 2 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The calls are stubs, so the backends need not exist.
			rt, err := New(Options{Backends: []string{"127.0.0.1:1", "127.0.0.1:2"}})
			if err != nil {
				t.Fatal(err)
			}
			tp := rt.topo.Load()
			calls := 0
			got, err := rt.failover(context.Background(), tp, tp.bs[0], n,
				func(context.Context, *backend) error {
					if calls >= len(tc.attempts) {
						t.Fatalf("attempt %d: want only %d", calls+1, len(tc.attempts))
					}
					err := tc.attempts[calls]
					calls++
					return err
				})
			if calls != len(tc.attempts) {
				t.Errorf("%d attempts, want %d", calls, len(tc.attempts))
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("error = %v, want %v", err, tc.wantErr)
			}
			switch {
			case tc.wantErr != nil && got != nil:
				t.Errorf("failed call returned backend %s", got.addr)
			case tc.wantErr == nil && (got == nil || (got != tp.bs[0]) != tc.moved):
				t.Errorf("answering backend = %v, moved off the assigned one: want %v", got, tc.moved)
			}
			if c := rt.Counters(); c.Routed != n || c.Retried != tc.retried {
				t.Errorf("routed %d retried %d, want %d and %d", c.Routed, c.Retried, n, tc.retried)
			}
		})
	}
}

// TestFailedGroupCancelsSiblings: in a scatter-gathered batch, one
// backend's terminal failure ends the other backend's work for that
// batch — the survivor abandons its remaining verifications instead of
// finishing a reply that is already an error — and the client sees
// exactly one error.
//
// The order of events is fixed rather than timed: the failing backend
// refuses its share only once the survivor has started verifying, and
// the survivor, verifying one test at a time, holds its first test until
// the client has seen the error, so the rest of its work is still
// unstarted when the cancellation reaches it.
func TestFailedGroupCancelsSiblings(t *testing.T) {
	ds := testDataset(40, 441)
	// Uniform, so the queries are (nearly) all distinct and their hashes
	// spread over the ring.
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12}, 48)
	if err != nil {
		t.Fatal(err)
	}

	for _, accept := range []string{"application/json"} {
		t.Run(accept, func(t *testing.T) {
			gated := &gatedVerifyMethod{Method: ggsx.New(ds, ggsx.Options{}), delay: 50 * time.Millisecond,
				started: make(chan struct{}), release: make(chan struct{})}
			survivor := serveCache(t, core.New(gated, core.Options{CacheSize: 20, WindowSize: 5, VerifyConcurrency: 1}))
			// A router that never cancels the survivor must fail the test,
			// not hang it: the gate opens by itself after 10s.
			release := sync.OnceFunc(func() { close(gated.release) })
			timer := time.AfterFunc(10*time.Second, release)
			t.Cleanup(func() { timer.Stop(); release() })

			// The failing backend answers its health checks, then refuses its
			// share of the batch — non-retryably, and only once the survivor
			// is mid-verify.
			mux := http.NewServeMux()
			mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
			mux.HandleFunc("POST /querybatch", func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-gated.started:
				case <-time.After(10 * time.Second):
				}
				server.WriteError(w, http.StatusBadRequest, errors.New("refused"))
			})
			failing := httptest.NewServer(mux)
			t.Cleanup(failing.Close)

			rt := startRouter(t, Options{
				Backends: []string{survivor.Addr(), strings.TrimPrefix(failing.URL, "http://")},
			})
			tp := rt.topo.Load()

			// The ring places a query by the backends' ports, so draw
			// workloads until the survivor's share is two queries or more:
			// each has a candidate to verify, so the survivor's second test is
			// unstarted while its first is held. Groups come in topology
			// order, so the survivor's is the first.
			var queries []*graph.Graph
			for seed := int64(442); queries == nil; seed++ {
				if seed == 442+20 {
					t.Fatal("no workload spans both backends with two queries on the survivor")
				}
				var qs []*graph.Graph
				for _, q := range workload.TypeA(ds, cfg, seed) {
					qs = append(qs, q.Graph)
				}
				groups, err := rt.group(tp, wireBodies(t, qs...))
				if err != nil {
					t.Fatal(err)
				}
				if len(groups) == 2 && len(groups[0].idxs) >= 2 {
					queries = qs
				}
			}
			frame, err := graph.EncodeBinary(queries)
			if err != nil {
				t.Fatal(err)
			}

			req, err := http.NewRequest(http.MethodPost, "http://"+rt.Addr()+"/querybatch", bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", server.ContentTypeBinary)
			req.Header.Set("Accept", accept)
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			failures := 0
			if res.StatusCode == http.StatusBadRequest {
				failures = 1
			}
			if failures != 1 {
				t.Errorf("client saw %d errors (status %d), want exactly 1", failures, res.StatusCode)
			}
			// The reply is final, so the router has already cancelled the
			// survivor's share; let its held test finish.
			release()

			deadline := time.Now().Add(10 * time.Second)
			for {
				v, ok := sampleValue(scrape(t, "http://"+survivor.Addr()+"/metrics"),
					"graphcache_server_stream_abandoned_verifications_total", nil)
				if ok && v >= 1 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("survivor abandoned %v verifications (%v); want >= 1 after its sibling failed", v, ok)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// gatedVerifyMethod holds a backend's verification at a gate: the first
// Verify closes started, and every Verify waits for release to close
// before a delay-long test.
type gatedVerifyMethod struct {
	method.Method
	delay            time.Duration
	once             sync.Once
	started, release chan struct{}
}

func (m *gatedVerifyMethod) Verify(q *graph.Graph, id int32) bool {
	m.once.Do(func() { close(m.started) })
	<-m.release
	time.Sleep(m.delay)
	return m.Method.Verify(q, id)
}
