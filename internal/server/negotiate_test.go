package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"graphcache/internal/graph"
)

// readCounter is a request body that counts the bytes read from it.
type readCounter struct {
	r io.Reader
	n int
}

func (rc *readCounter) Read(p []byte) (int, error) {
	n, err := rc.r.Read(p)
	rc.n += n
	return n, err
}

// hasMediaTypeParsed is hasMediaType as it was first written, every part
// through mime.ParseMediaType: the reference its table test compares
// against.
func hasMediaTypeParsed(header, mt string) bool {
	for _, part := range strings.Split(header, ",") {
		if t, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && t == mt {
			return true
		}
	}
	return false
}

// TestHasMediaTypeMatchesParse compares hasMediaType with every part
// parsed, over case, white space, lists, parameters and malformed
// parameters, for each media type the tiers look for.
func TestHasMediaTypeMatchesParse(t *testing.T) {
	headers := []string{
		"", ",", " , ,", "application", "application/", "/x-gc-binary",
		ContentTypeBinary, "APPLICATION/X-GC-BINARY", "Application/X-Gc-Binary",
		" " + ContentTypeBinary, ContentTypeBinary + " ", "\t" + ContentTypeBinary + "\t",
		"application/x-gc-binaryx", "xapplication/x-gc-binary", "application/x-gc",
		"application /x-gc-binary", "application/ x-gc-binary", "application/x gc-binary",
		ContentTypeBinary + ";", ContentTypeBinary + "; v=1", ContentTypeBinary + ";v=1;w=2",
		"APPLICATION/X-GC-BINARY; V=1", ContentTypeBinary + `; v="a;b"`,
		ContentTypeBinary + "; v", ContentTypeBinary + "; =1", ContentTypeBinary + "; v=1; v=2",
		ContentTypeBinary + "; v=(", ContentTypeBinary + ";;",
		"text/plain", "TEXT/PLAIN", "text/plain; charset=utf-8", "text/plain; charset",
		"text/plain, " + ContentTypeBinary, ContentTypeBinary + ",text/plain",
		"text/plain;q=1, APPLICATION/X-GC-BINARY ; v=1", "text/plain; v, " + ContentTypeBinary,
		"application/json", "Application/JSON; charset=utf-8", "application/json,",
		",application/json", "application/json, application/json; bad",
	}
	for _, mt := range []string{ContentTypeBinary, contentTypeJSON, "text/plain"} {
		for _, h := range headers {
			if got, want := hasMediaType(h, mt), hasMediaTypeParsed(h, mt); got != want {
				t.Errorf("hasMediaType(%q, %q) = %v, parsing every part gives %v", h, mt, got, want)
			}
		}
	}
	// Unicode lower-casing maps the Kelvin sign to k, and the parser lets
	// it pass for one; hasMediaType compares ASCII letters only.
	if hasMediaType("text/plain\u212a", "text/plaink") {
		t.Error("a Kelvin sign is not a k")
	}
}

// TestReadQueriesRefusesUntrustedLengths: a binary body is read into one
// buffer of its announced length, so the length is checked first. One
// announced over the body limit is refused with 400 before a byte is read
// or a buffer sized from it, and the connection is not kept to drain it;
// on the wire, a body shorter than it announced is 400, and an exact one
// is answered.
func TestReadQueriesRefusesUntrustedLengths(t *testing.T) {
	ds := testDataset(20, 241)
	h := New(newTestCache(ds), Options{}).Handler()
	frame, err := graph.EncodeBinary(testWorkload(ds, 1, 242))
	if err != nil {
		t.Fatal(err)
	}

	huge := &readCounter{r: bytes.NewReader(frame)}
	req := httptest.NewRequest(http.MethodPost, "/query", huge)
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.ContentLength = 1 << 50
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("Content-Length 2^50: status %d, want 400", rec.Code)
	}
	if huge.n != 0 {
		t.Errorf("Content-Length 2^50: %d body bytes read before the refusal", huge.n)
	}
	if got := rec.Header().Get("Connection"); got != "close" {
		t.Errorf("Content-Length 2^50: Connection %q, want close", got)
	}

	// The rest goes over a connection, where the server's body reader
	// holds the body to its Content-Length: post announces length, sends
	// the frame and half-closes.
	s := httptest.NewServer(h)
	defer s.Close()
	post := func(length int64) int {
		t.Helper()
		c, err := net.Dial("tcp", s.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fmt.Fprintf(c, "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", ContentTypeBinary, length)
		c.Write(frame)
		c.(*net.TCPConn).CloseWrite()
		res, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if code := post(RequestBodyLimit + 1); code != http.StatusBadRequest {
		t.Errorf("Content-Length one over the limit: status %d, want 400", code)
	}
	if code := post(int64(len(frame)) + 10); code != http.StatusBadRequest {
		t.Errorf("body 10 bytes shorter than announced: status %d, want 400", code)
	}
	if code := post(int64(len(frame))); code != http.StatusOK {
		t.Errorf("exact Content-Length: status %d, want 200", code)
	}
}

// TestReadRequestBodyGrowsAsBytesArrive: an announced length is trusted
// for no more than bodyBufStart before bytes arrive. A request that
// announces RequestBodyLimit and sends nothing, or one frame, is refused
// without a buffer of the announced size; a body over bodyBufStart that
// keeps its word is read whole into a buffer of exactly its length.
func TestReadRequestBodyGrowsAsBytesArrive(t *testing.T) {
	ds := testDataset(20, 243)
	frame, err := graph.EncodeBinary(testWorkload(ds, 1, 244))
	if err != nil {
		t.Fatal(err)
	}
	for _, sent := range [][]byte{nil, frame} {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(sent))
		req.ContentLength = RequestBodyLimit
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := readRequestBody(httptest.NewRecorder(), req, RequestBodyLimit)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%d of %d announced bytes sent: read %d bytes, want an error", len(sent), RequestBodyLimit, len(body))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= RequestBodyLimit/8 {
			t.Errorf("%d of %d announced bytes sent: %d bytes allocated", len(sent), RequestBodyLimit, got)
		}
	}

	want := bytes.Repeat(frame, 5*bodyBufStart/len(frame)+1)
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(want))
	body, err := readRequestBody(httptest.NewRecorder(), req, RequestBodyLimit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("a %d-byte body read as %d bytes, not the ones sent", len(want), len(body))
	}
	if cap(body) != len(want) {
		t.Errorf("a %d-byte body read into a buffer of %d", len(want), cap(body))
	}
}

// TestReadBodyGrowsAsBytesArrive: a reply's announced length is trusted
// no further than a request's. A reply that announces 64 MB and sends 10
// bytes is an error, read without a buffer of the announced size.
func TestReadBodyGrowsAsBytesArrive(t *testing.T) {
	res := &http.Response{ContentLength: 64 << 20, Body: io.NopCloser(strings.NewReader("0123456789"))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, err := readBody(res)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("10 of %d announced bytes sent: read %d bytes, want an error", res.ContentLength, len(body))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("10 of %d announced bytes sent: %d bytes allocated", res.ContentLength, got)
	}
}

// chunkReader hands out its bytes at most step at a time and records the
// largest buffer a reader offered it: the bytes already handed out plus
// the room that Read call asked to fill.
type chunkReader struct {
	data       []byte
	step, read int
	maxBuf     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.maxBuf = max(c.maxBuf, c.read+len(p))
	if c.read == len(c.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.step)], c.data[c.read:])
	c.read += n
	return n, nil
}

// FuzzReadSized: whatever a body announces and however its bytes arrive,
// readSized returns exactly the announced bytes or an error, and its
// buffer never exceeds twice the bytes that arrived plus bodyBufStart.
func FuzzReadSized(f *testing.F) {
	f.Add([]byte("0123456789"), uint32(10), uint16(3))
	f.Add([]byte("0123456789"), uint32(64<<20), uint16(10))
	f.Add([]byte("0123456789"), uint32(4), uint16(1))
	f.Add([]byte{}, uint32(0), uint16(1))
	f.Add(bytes.Repeat([]byte{7}, 3*bodyBufStart), uint32(3*bodyBufStart), uint16(5000))
	f.Fuzz(func(t *testing.T, data []byte, announced uint32, step uint16) {
		n := int64(announced)
		cr := &chunkReader{data: data, step: int(step) + 1}
		body, err := readSized(cr, n)
		switch {
		case int64(len(data)) < n && err == nil:
			t.Fatalf("%d of %d announced bytes read without an error", len(data), n)
		case int64(len(data)) >= n && err != nil:
			t.Fatalf("%d bytes for an announced %d: %v", len(data), n, err)
		case err == nil && !bytes.Equal(body, data[:n]):
			t.Fatalf("read %d bytes, not the %d announced ones sent", len(body), n)
		}
		if cr.maxBuf > 2*cr.read+bodyBufStart {
			t.Fatalf("a buffer of %d for %d arrived bytes", cr.maxBuf, cr.read)
		}
	})
}
