package server

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/telemetry"
)

// Wire-format negotiation. Requests are JSON or GCBF; replies are always
// the JSON envelope. A request body with Content-Type:
// application/x-gc-binary is a graph.EncodeBinary frame instead of a
// JSON envelope around t/v/e text. The Accept header is not read: every
// value gets the JSON reply — application/x-gc-binary included, as there
// is no binary result format.
const (
	contentTypeJSON = "application/json"
	// ContentTypeBinary marks binary graph frames in request bodies.
	// Exported for clients built outside this package.
	ContentTypeBinary = "application/x-gc-binary"
)

// hasMediaType reports whether a comma-separated header value
// (Content-Type) names media type mt, a lower-case type/subtype, ignoring
// parameters and the case of the type. A part without parameters is
// compared as it stands, with no allocation; only a part with parameters
// is parsed, and then it counts only if they are well formed. A part
// equal to mt only once Unicode folds a non-ASCII letter (the Kelvin
// sign for k) is not mt.
func hasMediaType(header, mt string) bool {
	for rest, more := header, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if !strings.Contains(part, ";") {
			if len(part) == len(mt) && strings.EqualFold(part, mt) {
				return true
			}
			continue
		}
		if t, _, err := mime.ParseMediaType(part); err == nil && t == mt {
			return true
		}
	}
	return false
}

// countingReader counts bytes read, feeding the codec byte counters.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Wire is one tier's side of the negotiation — gcserved's toward its
// clients, gcrouter's toward its own: the request reader and the result
// writer, over the tier's body bound and the metrics of the two request
// formats and the one reply format.
type Wire struct {
	maxBodyBytes       int64
	reqText, reqBinary *wireMetrics
	respText           *wireMetrics
}

// NewWire registers a tier's wire metrics on reg under prefix
// ("graphcache_server", "graphcache_router").
func NewWire(reg *telemetry.Registry, prefix string, maxBodyBytes int64) *Wire {
	return &Wire{
		maxBodyBytes: maxBodyBytes,
		reqText:      newWireMetrics(reg, prefix, "text", true),
		reqBinary:    newWireMetrics(reg, prefix, "binary", true),
		respText:     newWireMetrics(reg, prefix, "text", false),
	}
}

// IsSingleQuery reports whether r came in on POST /query, whose body
// holds exactly one graph and whose reply is a bare QueryResponse, rather
// than on POST /querybatch. The two routes share one handler per tier.
func IsSingleQuery(r *http.Request) bool { return r.URL.Path == "/query" }

// WantsTrace reports whether r asked for its results' span breakdowns
// (?debug=trace). A request without a query string parses none.
func WantsTrace(r *http.Request) bool {
	return r.URL.RawQuery != "" && r.URL.Query().Get("debug") == "trace"
}

// ReadGraphs decodes a /query or /querybatch request body in its
// negotiated format. one enforces the single-graph contract of /query.
// The returned duration is the graph-decode time (for traces); on a
// false return the error reply has been written.
func (wr *Wire) ReadGraphs(w http.ResponseWriter, r *http.Request, one bool) ([]*graph.Graph, time.Duration, bool) {
	return readQueries(wr, w, r, one, graph.DecodeBinary, func(gs []*graph.Graph) []*graph.Graph { return gs })
}

// ReadBodies is ReadGraphs for a tier that forwards queries instead of
// answering them: a binary request is split into its graph bodies, each
// keyed with its IsoKey, and no graph is built (graph.SplitBinary); a text
// request is parsed and transcoded to bodies once (graph.EncodeBodies).
// The returned duration is that work's time.
func (wr *Wire) ReadBodies(w http.ResponseWriter, r *http.Request, one bool) ([]graph.Body, time.Duration, bool) {
	return readQueries(wr, w, r, one, graph.SplitBinary, graph.EncodeBodies)
}

// readQueries reads a /query or /querybatch request body as ReadGraphs
// describes, turning a binary body into queries with fromBinary and the
// graphs of a text body with fromText.
func readQueries[Q any](wr *Wire, w http.ResponseWriter, r *http.Request, one bool,
	fromBinary func([]byte) ([]Q, error), fromText func([]*graph.Graph) []Q) ([]Q, time.Duration, bool) {
	var qs []Q
	var decDur time.Duration
	wm := wr.reqText
	if hasMediaType(r.Header.Get("Content-Type"), ContentTypeBinary) {
		wm = wr.reqBinary
		body, err := readRequestBody(w, r, wr.maxBodyBytes)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
			return nil, 0, false
		}
		wm.Bytes.Add(float64(len(body)))
		decStart := time.Now()
		qs, err = fromBinary(body)
		decDur = time.Since(decStart)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return nil, 0, false
		}
	} else {
		cr := &countingReader{r: http.MaxBytesReader(w, r.Body, wr.maxBodyBytes)}
		var text string
		if one {
			var req QueryRequest
			if !decodeJSONBody(w, cr, &req) {
				return nil, 0, false
			}
			text = req.Graph
		} else {
			var req BatchRequest
			if !decodeJSONBody(w, cr, &req) {
				return nil, 0, false
			}
			text = req.Graphs
		}
		wm.Bytes.Add(float64(cr.n))
		decStart := time.Now()
		gs, err := decodeGraphs(text)
		if err == nil {
			qs = fromText(gs)
		}
		decDur = time.Since(decStart)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return nil, 0, false
		}
	}
	wm.Seconds.Observe(decDur.Seconds())
	wm.Negotiated.Inc()
	if len(qs) == 0 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("no graphs in request"))
		return nil, 0, false
	}
	if one && len(qs) != 1 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("want exactly 1 graph, got %d (use /querybatch for batches)", len(qs)))
		return nil, 0, false
	}
	return qs, decDur, true
}

// bodyBufStart is how much of an announced Content-Length a body's buffer
// is sized for before any byte of it arrives: a batch of queries or
// results fits, and a peer that announces a large body and sends nothing
// holds no more than this.
const bodyBufStart = 16 << 10

// readRequestBody reads a request body of at most limit bytes whole. An
// announced length over limit is refused before anything is sized from
// it, and the connection closes after the reply instead of draining the
// body. A body with a length is read by readSized; one without, by
// io.ReadAll.
func readRequestBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n > limit {
		w.Header().Set("Connection", "close")
		return nil, &http.MaxBytesError{Limit: limit}
	}
	if n < 0 {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	return readSized(r.Body, n)
}

// readSized reads a body that announced n bytes, in either direction. The
// buffer starts at n up to bodyBufStart and doubles as bytes arrive, never
// past n, so a body that keeps its word ends in a buffer of exactly its
// size and one that breaks it never holds more than twice what arrived
// plus bodyBufStart; a body shorter than it announced is an error.
func readSized(r io.Reader, n int64) ([]byte, error) {
	body := make([]byte, min(n, bodyBufStart))
	for k := 0; ; {
		m, err := io.ReadFull(r, body[k:])
		if err != nil {
			return nil, err
		}
		if k += m; int64(k) == n {
			return body, nil
		}
		grown := make([]byte, int64(k)+min(n-int64(k), int64(k)))
		copy(grown, body)
		body = grown
	}
}

// WriteResults writes query results as the JSON envelope: a bare
// QueryResponse for /query, a BatchResponse for /querybatch — encoded in
// one buffer sized for them up front (see results.go).
func (wr *Wire) WriteResults(w http.ResponseWriter, rs []QueryResponse, single bool) {
	encStart := time.Now()
	size := 16
	for i := range rs {
		size += 400 + 8*len(rs[i].Answer)
	}
	buf := make([]byte, 0, size)
	if single {
		buf = appendQueryResponse(buf, &rs[0])
	} else {
		buf = appendBatchResponse(buf, rs)
	}
	buf = append(buf, '\n')
	// Announcing the length keeps net/http from chunking a reply over its
	// 2 KB buffer, and lets the client read it into one exact buffer.
	w.Header().Set("Content-Type", contentTypeJSON)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(buf) // a failed write means the client left; nothing to report it to
	wr.respText.Seconds.Observe(time.Since(encStart).Seconds())
	wr.respText.Negotiated.Inc()
	wr.respText.Bytes.Add(float64(n))
}

// ReadJSON decodes a request body of at most maxBodyBytes into v,
// replying with 400 on malformed input. It reports whether the handler
// should proceed.
func ReadJSON(w http.ResponseWriter, r *http.Request, maxBodyBytes int64, v any) bool {
	return decodeJSONBody(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// decodeJSONBody is ReadJSON over an explicit (possibly wrapped) body
// reader, so negotiation can count the bytes it consumes.
func decodeJSONBody(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes err as the JSON ErrorResponse every tier replies with.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}
