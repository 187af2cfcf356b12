package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/server"
	"graphcache/internal/workload"
)

// TestFailover pins the router's one dispatch loop: which backend
// answers, how many attempts are made, and what routed and retried count
// — per query carried, for singles, buffered groups and streams alike.
func TestFailover(t *testing.T) {
	const n = 5 // queries riding each call
	down := errors.New("connection refused")
	rejected := &server.StatusError{Code: http.StatusBadRequest, Status: "400 Bad Request"}
	type attempt struct {
		delivered int
		err       error
	}
	for _, tc := range []struct {
		name     string
		attempts []attempt // one per expected call, in order
		wantErr  error
		moved    bool // the answering backend is not the assigned one
		retried  int64
	}{
		{"success first try", []attempt{{0, nil}}, nil, false, 0},
		{"retryable then success", []attempt{{0, down}, {0, nil}}, nil, true, n},
		{"non-retryable", []attempt{{0, rejected}}, rejected, false, 0},
		{"all backends exhausted", []attempt{{0, down}, {0, down}}, down, false, 2 * n},
		{"stream already delivered", []attempt{{3, down}}, down, false, 0},
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
				func(context.Context, *backend) (int, error) {
					if calls >= len(tc.attempts) {
						t.Fatalf("attempt %d: want only %d", calls+1, len(tc.attempts))
					}
					a := tc.attempts[calls]
					calls++
					return a.delivered, a.err
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
func TestFailedGroupCancelsSiblings(t *testing.T) {
	ds := testDataset(40, 441)
	// Uniform, so the 48 queries are (nearly) all distinct and their
	// hashes cannot all fall to one backend of the ring.
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12}, 48)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*graph.Graph
	for _, q := range workload.TypeA(ds, cfg, 442) {
		queries = append(queries, q.Graph)
	}
	frame, err := graph.EncodeBinary(queries)
	if err != nil {
		t.Fatal(err)
	}
	// The failing backend answers its health checks, then refuses its
	// share of the batch — non-retryably, and late enough that the
	// survivor is mid-verify by then.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /querybatch", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		server.WriteError(w, http.StatusBadRequest, errors.New("refused"))
	})
	failing := httptest.NewServer(mux)
	t.Cleanup(failing.Close)

	for _, accept := range []string{"application/json", server.ContentTypeNDJSON} {
		t.Run(accept, func(t *testing.T) {
			survivor := startSlowBackend(t, ds, 20*time.Millisecond)
			rt := startRouter(t, Options{
				Backends: []string{survivor.Addr(), strings.TrimPrefix(failing.URL, "http://")},
				Mode:     Shard,
			})
			tp := rt.topo.Load()
			if groups, err := rt.group(tp, queries); err != nil || len(groups) != 2 {
				t.Fatalf("workload does not span both backends: %d groups, %v", len(groups), err)
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
			if accept == server.ContentTypeNDJSON {
				sc := bufio.NewScanner(res.Body)
				sc.Buffer(nil, 1<<20)
				for sc.Scan() {
					var sr server.StreamResult
					if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
						t.Fatalf("stream line %q: %v", sc.Text(), err)
					}
					if failures > 0 {
						t.Errorf("stream line after the error line: %q", sc.Text())
					}
					if sr.Error != "" {
						failures++
					}
				}
			} else if res.StatusCode == http.StatusBadRequest {
				failures = 1
			}
			if failures != 1 {
				t.Errorf("client saw %d errors (status %d), want exactly 1", failures, res.StatusCode)
			}

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
