package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// recordingBackend stands in for a gcserved: it records every query
// request body it is sent and answers each graph with an empty result.
type recordingBackend struct {
	srv *httptest.Server

	mu     sync.Mutex
	bodies map[string][][]byte // request bodies by endpoint
}

func startRecordingBackend(t *testing.T) *recordingBackend {
	t.Helper()
	rb := &recordingBackend{bodies: make(map[string][][]byte)}
	wire := server.NewWire(telemetry.NewRegistry(), "test", server.RequestBodyLimit)
	mux := http.NewServeMux()
	for _, path := range []string{"/query", "/querybatch"} {
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil || r.Header.Get("Content-Type") != server.ContentTypeBinary {
				server.WriteError(w, http.StatusBadRequest, err)
				return
			}
			rb.mu.Lock()
			rb.bodies[path] = append(rb.bodies[path], body)
			rb.mu.Unlock()
			qs, err := graph.SplitBinary(body)
			if err != nil {
				server.WriteError(w, http.StatusBadRequest, err)
				return
			}
			wire.WriteResults(w, make([]server.QueryResponse, len(qs)), path == "/query")
		})
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	rb.srv = httptest.NewServer(mux)
	t.Cleanup(rb.srv.Close)
	return rb
}

func (rb *recordingBackend) addr() string { return strings.TrimPrefix(rb.srv.URL, "http://") }

// take returns and forgets the bodies recorded on path.
func (rb *recordingBackend) take(path string) [][]byte {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	got := rb.bodies[path]
	delete(rb.bodies, path)
	return got
}

// post sends body to the router and returns the reply's status.
func post(t *testing.T, url, contentType string, body []byte) int {
	t.Helper()
	res, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	io.Copy(io.Discard, res.Body)
	return res.StatusCode
}

// TestRouterForwardsClientBodies: a router forwards the graph bodies its
// client sent, never graphs it rebuilt. A binary batch reaches each
// backend as one frame of exactly the client's bodies of that backend's
// group, in request order, byte for byte; a text batch reaches them as
// the binary encoding of the parsed graphs; a binary /query reaches its
// home's /querybatch as the client's own frame, a batch of one. A request the backends would refuse —
// two graphs on /query, or a malformed frame — gets 400 from the router
// and reaches no backend.
func TestRouterForwardsClientBodies(t *testing.T) {
	rbs := []*recordingBackend{startRecordingBackend(t), startRecordingBackend(t), startRecordingBackend(t)}
	var addrs []string
	for _, rb := range rbs {
		addrs = append(addrs, rb.addr())
	}
	rt := startRouter(t, Options{Backends: addrs})
	tp := rt.topo.Load()
	base := "http://" + rt.Addr()
	home := func(key uint64) int { return tp.ring.lookup(key) }

	queries := testWorkload(testDataset(60, 91), 40, 92)
	frame, err := graph.EncodeBinary(queries)
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := graph.SplitBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	// groups[k] holds the request indices homed on backend k, in order.
	groups := make([][]int, len(rbs))
	for i, b := range bodies {
		groups[home(b.Key)] = append(groups[home(b.Key)], i)
	}
	spans := 0
	for _, g := range groups {
		if len(g) > 0 {
			spans++
		}
	}
	if spans < 2 {
		t.Fatalf("the batch's queries are homed on %d backend, want a batch that spans several", spans)
	}

	checkBatch := func(what string, want func(idxs []int) []byte) {
		t.Helper()
		for k, rb := range rbs {
			got := rb.take("/querybatch")
			if len(groups[k]) == 0 {
				if len(got) != 0 {
					t.Errorf("%s: backend %d homes no query but was sent %d requests", what, k, len(got))
				}
				continue
			}
			if len(got) != 1 {
				t.Errorf("%s: backend %d was sent %d requests, want one", what, k, len(got))
				continue
			}
			if w := want(groups[k]); !bytes.Equal(got[0], w) {
				t.Errorf("%s: backend %d was sent %x, want %x", what, k, got[0], w)
			}
		}
	}

	if code := post(t, base+"/querybatch", server.ContentTypeBinary, frame); code != http.StatusOK {
		t.Fatalf("binary batch: status %d", code)
	}
	checkBatch("binary batch", func(idxs []int) []byte {
		sub := make([]graph.Body, len(idxs))
		for k, i := range idxs {
			sub[k] = bodies[i]
		}
		return graph.EncodeFrame(sub)
	})

	text, err := graph.EncodeText(queries)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(server.BatchRequest{Graphs: string(text)})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.DecodeText(text)
	if err != nil {
		t.Fatal(err)
	}
	if code := post(t, base+"/querybatch", "application/json", envelope); code != http.StatusOK {
		t.Fatalf("text batch: status %d", code)
	}
	checkBatch("text batch", func(idxs []int) []byte {
		sub := make([]*graph.Graph, len(idxs))
		for k, i := range idxs {
			sub[k] = parsed[i]
		}
		data, err := graph.EncodeBinary(sub)
		if err != nil {
			t.Fatal(err)
		}
		return data
	})

	single := graph.EncodeFrame(bodies[:1])
	if code := post(t, base+"/query", server.ContentTypeBinary, single); code != http.StatusOK {
		t.Fatalf("binary query: status %d", code)
	}
	for k, rb := range rbs {
		got := rb.take("/querybatch")
		if k != home(bodies[0].Key) {
			if len(got) != 0 {
				t.Errorf("binary query: backend %d is not its home but was sent %d requests", k, len(got))
			}
		} else if len(got) != 1 || !bytes.Equal(got[0], single) {
			t.Errorf("binary query: its home was sent %x, want the client's frame %x", got, single)
		}
	}

	bad := func(body []byte) []byte { return graph.EncodeFrame([]graph.Body{{Data: body}}) }
	uvarints := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name, path string
		frame      []byte
	}{
		{"two graphs on /query", "/query", graph.EncodeFrame(bodies[:2])},
		{"bad magic", "/querybatch", append([]byte("GCBX"), frame[4:]...)},
		{"truncated body", "/querybatch", frame[:len(frame)-1]},
		{"label out of range", "/querybatch", bad(uvarints(0, 1, 1<<16, 1, 0, 0))},
		{"endpoint out of range", "/querybatch", bad(uvarints(0, 1, 5, 2, 0, 0, 1, 0, 1))},
		{"trailing bytes", "/querybatch", append(slices.Clip(frame), 0)},
		{"trailing body bytes", "/query", bad(uvarints(0, 1, 5, 1, 0, 0, 0))},
	} {
		if code := post(t, base+tc.path, server.ContentTypeBinary, tc.frame); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		for k, rb := range rbs {
			if got := len(rb.take("/query")) + len(rb.take("/querybatch")); got != 0 {
				t.Errorf("%s: backend %d was sent %d requests, want none", tc.name, k, got)
			}
		}
	}
}

// TestBatchRepliesAnnounceLength: a 32-result /querybatch reply, from
// gcserved and through gcrouter, announces its length instead of being
// chunked, so a client reads it into one buffer of the exact size.
func TestBatchRepliesAnnounceLength(t *testing.T) {
	ds := testDataset(60, 93)
	queries := testWorkload(ds, 32, 94)
	frame, err := graph.EncodeBinary(queries)
	if err != nil {
		t.Fatal(err)
	}
	b := startBackend(t, ds)
	rt := startRouter(t, Options{Backends: []string{b.Addr()}})
	for _, tier := range []struct{ name, addr string }{{"gcserved", b.Addr()}, {"gcrouter", rt.Addr()}} {
		res, err := http.Post("http://"+tier.addr+"/querybatch", server.ContentTypeBinary, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tier.name, res.StatusCode, body)
		}
		var br server.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != len(queries) {
			t.Fatalf("%s: reply of %d results (%v), want %d", tier.name, len(br.Results), err, len(queries))
		}
		if res.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, body %d bytes", tier.name, res.ContentLength, len(body))
		}
		if slices.Contains(res.TransferEncoding, "chunked") {
			t.Errorf("%s: a %d-byte reply was chunked", tier.name, len(body))
		}
	}
}
