// Package server is gcserved's serving subsystem: it front-ends one
// core.Cache (and therefore one Method M) for many network clients, the
// deployment shape of the paper's GraphCache *system*. Three pieces:
//
//   - an HTTP/JSON API over the t/v/e graph wire codec (POST /query,
//     POST /querybatch, GET /stats, GET /healthz);
//   - a request coalescer that dispatches a single query at once when
//     the engine is idle and folds the queries that arrive while it is
//     busy into the next run of the pipeline, so the service boundary
//     amortises filter dispatch and statistics application exactly when
//     there is concurrency to amortise over;
//   - the snapshot lifecycle of the paper's Cache Manager: Start loads
//     cache contents from disk, Shutdown drains in-flight requests and
//     writes them back.
//
// Client (client.go) is the matching Go client, shared by tests, by
// `gcquery -server` and by applications.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Addr is the TCP listen address (default "127.0.0.1:7621"; use
	// ":7621" to accept remote clients, port 0 for an ephemeral port).
	Addr string
	// SnapshotPath, when non-empty, names the cache snapshot file: loaded
	// by Start if it exists, written by Shutdown. The paper's Cache
	// stores are "loaded from disk on startup and written back to disk on
	// shutdown" — this is that lifecycle at the daemon boundary. A file
	// that fails its integrity check (checksum trailer or decode) is
	// quarantined to SnapshotPath+".corrupt" and the daemon starts cold.
	SnapshotPath string
	// SnapshotInterval, when positive (and SnapshotPath is set), writes
	// the snapshot periodically in the background, through the same
	// fsync+rename path as shutdown. A crashed daemon (SIGKILL, power
	// loss) then restarts having lost at most one interval of learned
	// cache entries, instead of everything since startup.
	SnapshotInterval time.Duration
	// JournalPath, when non-empty, names the mutation write-ahead log:
	// every acked POST /mutate is appended and fsynced here before the
	// acknowledgement is sent, Start replays records the snapshot does
	// not cover, and each successful snapshot write truncates the
	// journal to the records past the snapshot's epoch. With it, a
	// SIGKILL at any instant loses zero acked mutations.
	JournalPath string
	// MaxBatch bounds the size of a coalesced run: that many queued
	// queries are dispatched at once (default 64; 1 runs every query on a
	// run of its own).
	MaxBatch int
	// MaxDelay is how long a query may be held behind a busy engine: one
	// that arrives while a run is in flight joins the next run, which
	// starts when a run returns or, at the latest, when the first query
	// queued has waited MaxDelay. A query that finds the engine idle is
	// never held (0 means the 2ms default; negative means no query is
	// ever held: each is dispatched at once beside the runs in flight).
	MaxDelay time.Duration
	// MaxBodyBytes bounds a request body (default 64 MiB).
	MaxBodyBytes int64
	// ShedThreshold caps the queries admitted concurrently across
	// /query and /querybatch; past it the server sheds with 429 and a
	// Retry-After hint instead of queueing without bound (0 disables —
	// a router in front usually owns the shedding policy).
	ShedThreshold int
	// LogEvery, when positive, logs one structured line (via Logger)
	// per N served queries — request id, stage timings, answer size —
	// a sampled trace of the serving stream cheap enough to leave on.
	LogEvery int
	// Logger receives lifecycle and sampled query logs (default
	// slog.Default()).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// serving mux. Off by default: gcserved's port is the query plane.
	EnablePprof bool
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:7621"
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay == 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	return o
}

// Server serves one Cache over HTTP. Construct with New, then either
// Start/Serve/Shutdown for the daemon lifecycle or Handler for embedding
// in an existing mux (tests use httptest around it).
type Server struct {
	cache *core.Cache
	opts  Options
	co    *coalescer
	mux   *http.ServeMux
	hs    *http.Server
	lis   net.Listener

	admitted atomic.Int64 // queries admitted and not yet answered
	shed     atomic.Int64 // requests refused with 429

	warmed atomic.Int64 // completed warm-ups, for /stats

	snapStop chan struct{} // closed by Shutdown to stop the periodic snapshot loop
	snapDone chan struct{}
	snapOnce sync.Once

	// mutMu serialises POST /mutate handlers and warm-ups: the journal
	// append and the cache apply must land in the same order, the record's
	// epoch (current+1) is only deterministic under the lock, and a
	// warm-up's journal truncation swaps the file the appends write to.
	// jr is nil when no JournalPath is configured.
	mutMu sync.Mutex
	jr    *journal

	// met is the server's metric surface (see metrics.go), wire its
	// format negotiation with the codec metrics, reg the registry behind
	// GET /metrics; start anchors uptime_seconds.
	met      *serverMetrics
	wire     *Wire
	reg      *telemetry.Registry
	start    time.Time
	reqCount atomic.Int64 // served queries, for the sampled query log
}

// logf reports serving-lifecycle events (quarantined snapshots, failed
// periodic writes) through the structured logger. A variable so tests
// can capture it.
var logf = func(format string, args ...any) {
	slog.Default().Warn(fmt.Sprintf(format, args...), "component", "gcserved")
}

// New wraps c in a Server. The cache must already be built over its
// dataset and method; the server only adds the network boundary. New
// installs the server's metrics as the cache's core.Observer, for window
// passes and mutations, folds every query it runs as its result is
// delivered, and serves the registry at GET /metrics.
func New(c *core.Cache, opts Options) *Server {
	opts = opts.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Server{
		cache: c,
		opts:  opts,
		mux:   http.NewServeMux(),
		met:   newServerMetrics(reg),
		wire:  NewWire(reg, "graphcache_server", opts.MaxBodyBytes),
		reg:   reg,
		start: time.Now(),
	}
	s.co = newCoalescer(s)
	c.SetObserver(s.met)
	reg.GaugeFunc("graphcache_server_admitted_queries", "Queries admitted and not yet answered.",
		func() float64 { return float64(s.admitted.Load()) })
	reg.GaugeFunc("graphcache_cached_queries", "Queries cached right now.",
		func() float64 { return float64(len(c.CachedSerials())) })
	reg.GaugeFunc("graphcache_dataset_epoch", "Dataset mutation epoch (0 = never mutated).",
		func() float64 { return float64(c.DatasetEpoch()) })
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /querybatch", s.handleBatch)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	s.mux.HandleFunc("POST /warm", s.handleWarm)
	s.mux.HandleFunc("POST /mutate", s.handleMutate)
	s.mux.Handle("GET /metrics", reg.Handler())
	if opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's HTTP handler — the API mux behind the
// request-id middleware — for embedding or for httptest-driven tests.
func (s *Server) Handler() http.Handler { return WithRequestID(s.mux) }

// Metrics returns the server's telemetry registry, for embedding its
// exposition elsewhere or asserting on metrics in tests.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// WithRequestID is both tiers' request-id middleware: it assigns every
// request its fleet-wide id. An id arriving in the X-GC-Request-Id header
// (minted by the router in front, or by a router fronting that router) is
// kept, otherwise one is minted here, at the fleet's front door. The id
// rides the request context to handlers, traces and sampled logs — and,
// through the router's backend client, to every dispatch — and is echoed
// on the response.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(telemetry.RequestIDHeader)
		if id == "" {
			id = telemetry.NewRequestID()
		}
		w.Header().Set(telemetry.RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(telemetry.WithRequestID(r.Context(), id)))
	})
}

// Options returns the server's (defaulted) configuration.
func (s *Server) Options() Options { return s.opts }

// Start performs the daemon's startup: load the snapshot (when configured
// and present) and bind the listen address. It does not serve yet — call
// Serve, typically on its own goroutine.
func (s *Server) Start() error {
	if s.opts.SnapshotPath != "" {
		if err := s.loadSnapshot(); err != nil {
			return err
		}
	}
	if s.opts.JournalPath != "" {
		if err := s.openAndReplayJournal(); err != nil {
			return err
		}
	}
	lis, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.opts.Addr, err)
	}
	s.lis = lis
	s.hs = &http.Server{Handler: s.Handler()}
	if s.opts.SnapshotPath != "" && s.opts.SnapshotInterval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	return nil
}

// loadSnapshot restores the cache from SnapshotPath. A missing file is a
// cold start; a file that fails the integrity check or does not decode
// is quarantined to SnapshotPath+".corrupt" and the daemon starts cold —
// a mangled snapshot must cost cache warmth, never availability. Only
// I/O errors (unreadable file) abort startup: they usually mean operator
// error, and silently ignoring them would mask it.
func (s *Server) loadSnapshot() error {
	path := s.opts.SnapshotPath
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: reading snapshot: %w", err)
	}
	body, lerr := splitChecked(data)
	if lerr == nil {
		lerr = s.cache.ReadSnapshot(bytes.NewReader(body))
	}
	if lerr != nil {
		// A snapshot written over a different dataset is not corrupt — the
		// bytes are intact — but loading it would serve another dataset's
		// graph IDs. It gets its own quarantine suffix so the operator can
		// tell "disk ate my snapshot" from "wrong -dataset flag".
		suffix := ".corrupt"
		if errors.Is(lerr, core.ErrDatasetMismatch) {
			suffix = ".mismatch"
		}
		quarantine := path + suffix
		if rerr := os.Rename(path, quarantine); rerr != nil {
			logf("server: quarantining snapshot %s: %v", path, rerr)
			quarantine = "(rename failed; left in place)"
		}
		logf("server: snapshot %s unusable (%v); quarantined to %s, starting cold", path, lerr, quarantine)
	}
	return nil
}

// openAndReplayJournal opens the mutation journal and replays every
// record the snapshot does not cover (epoch greater than the dataset's
// current epoch), in order. Replay re-derives cache maintenance from
// each mutation exactly as the original apply did, so the post-replay
// dataset and cache match the pre-crash state for all acked mutations.
// A record that fails to apply aborts startup: silently skipping it
// would diverge this replica from what it acknowledged.
func (s *Server) openAndReplayJournal() error {
	jr, recs, err := openJournal(s.opts.JournalPath)
	if err != nil {
		return err
	}
	s.jr = jr
	replayed := 0
	for _, rec := range recs {
		if rec.Epoch <= s.cache.DatasetEpoch() {
			continue // the snapshot already contains this mutation
		}
		if rec.Epoch != s.cache.DatasetEpoch()+1 {
			return fmt.Errorf("server: journal record at epoch %d cannot follow dataset epoch %d (journal %s does not belong to snapshot %s?)",
				rec.Epoch, s.cache.DatasetEpoch(), s.opts.JournalPath, s.opts.SnapshotPath)
		}
		mut, err := decodeMutation(MutateRequest{Op: rec.Op, Graphs: rec.Graphs, IDs: rec.IDs, Seq: rec.Seq})
		if err != nil {
			return fmt.Errorf("server: decoding journal record at epoch %d: %w", rec.Epoch, err)
		}
		if _, err := s.cache.ApplyMutation(mut); err != nil {
			return fmt.Errorf("server: replaying journal record at epoch %d: %w", rec.Epoch, err)
		}
		replayed++
	}
	if replayed > 0 {
		s.opts.Logger.Info("mutation journal replayed", "component", "gcserved",
			"records", replayed, "epoch", s.cache.DatasetEpoch())
	}
	return nil
}

// Addr returns the bound listen address (valid after Start; resolves port
// 0 to the actual port).
func (s *Server) Addr() string {
	if s.lis == nil {
		return s.opts.Addr
	}
	return s.lis.Addr().String()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (s *Server) Serve() error {
	if err := s.hs.Serve(s.lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown performs the daemon's graceful shutdown: stop accepting, drain
// in-flight requests (bounded by ctx), and write the snapshot when
// configured; the write runs the cache's window barrier, so it holds every
// window those requests filled. The snapshot is written even if the HTTP
// drain times out — cache contents are consistent at any point between
// requests.
func (s *Server) Shutdown(ctx context.Context) error {
	var errs []error
	if s.snapStop != nil {
		// Stop the periodic writer before the final write so the two
		// never race for the snapshot path.
		s.snapOnce.Do(func() { close(s.snapStop) })
		<-s.snapDone
	}
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server: http shutdown: %w", err))
		}
	}
	// http.Server.Shutdown only closes listeners registered by Serve; in a
	// Start→Shutdown sequence where Serve never ran (error paths, tests)
	// s.lis would leak its socket. After Serve the listener is already
	// closed and Close returns net.ErrClosed, which is not an error here.
	if s.lis != nil {
		if err := s.lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, fmt.Errorf("server: closing listener: %w", err))
		}
	}
	if s.opts.SnapshotPath != "" {
		info, err := writeSnapshotFile(s.cache, s.opts.SnapshotPath)
		if err != nil {
			errs = append(errs, err)
		} else {
			s.truncateJournal(info.Epoch)
		}
	}
	if s.jr != nil {
		if err := s.jr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: closing mutation journal: %w", err))
		}
	}
	return errors.Join(errs...)
}

// truncateJournal drops journal records a just-written snapshot now
// covers. Failure is logged, not fatal: an over-long journal only costs
// replay time, never correctness (replay skips covered epochs).
func (s *Server) truncateJournal(throughEpoch int64) {
	if s.jr == nil {
		return
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if err := s.jr.truncateThrough(throughEpoch); err != nil {
		logf("server: truncating mutation journal: %v", err)
	}
}

// fsync flushes a file's contents to stable storage. It is a variable so
// the snapshot-durability regression test can observe the call.
var fsync = (*os.File).Sync

// writeSnapshotFile writes the cache snapshot atomically and durably: to
// a temp file in the target directory, fsynced, then renamed over the
// target, so neither a crash mid-write nor a power loss right after the
// rename can install a truncated or empty snapshot. The payload carries
// the checksum trailer, so corruption the rename discipline cannot
// prevent is still detected at load.
func writeSnapshotFile(c *core.Cache, path string) (core.SnapshotInfo, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".gcsnapshot-*")
	if err != nil {
		return core.SnapshotInfo{}, fmt.Errorf("server: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	info, err := writeCheckedSnapshot(c, tmp)
	if err != nil {
		tmp.Close()
		return info, fmt.Errorf("server: writing snapshot: %w", err)
	}
	// Without the fsync, Rename could install a name pointing at data
	// still in the page cache; a power loss would then leave an empty
	// snapshot under the target path.
	if err := fsync(tmp); err != nil {
		tmp.Close()
		return info, fmt.Errorf("server: syncing snapshot temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return info, fmt.Errorf("server: closing snapshot temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return info, fmt.Errorf("server: installing snapshot: %w", err)
	}
	// Best-effort directory sync makes the rename itself durable; some
	// platforms and filesystems reject fsync on directories, which is
	// fine — the contents above are already on disk.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return info, nil
}

// ---- Handlers ----------------------------------------------------------

// admit reserves n queries of serving capacity, refusing when the
// admitted total would cross ShedThreshold. Pair a true return with
// done(n). With ShedThreshold 0 admission is unbounded, but still
// counted for the admitted-queries gauge.
func (s *Server) admit(n int) bool {
	if s.admitted.Add(int64(n)) > int64(s.opts.ShedThreshold) && s.opts.ShedThreshold > 0 {
		s.admitted.Add(int64(-n))
		s.shed.Add(1)
		s.met.shedTotal.Inc()
		return false
	}
	return true
}

func (s *Server) done(n int) { s.admitted.Add(int64(-n)) }

// writeShed answers 429 Too Many Requests with a Retry-After hint, so
// resilient clients back off instead of piling onto the queue.
func writeShed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusTooManyRequests, errors.New("overloaded: admitted queries at bound; retry after 1s"))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	qs, decDur, ok := s.wire.ReadGraphs(w, r, true)
	if !ok {
		return
	}
	q := qs[0]
	if !s.admit(1) {
		writeShed(w)
		return
	}
	defer s.done(1)
	res, err := s.co.query(r.Context(), q)
	if err != nil {
		// The client is gone; there is no one to answer.
		return
	}
	resp := QueryResponse{Answer: res.Answer, Stats: res.Stats}
	if r.URL.Query().Get("debug") == "trace" {
		resp.Trace = s.buildTrace(r.Context(), decDur, res.wait, res.Stats)
	}
	s.logQuery(r.Context(), res.Stats, time.Since(arrived))
	s.wire.WriteResults(w, []QueryResponse{resp}, true)
}

// buildTrace assembles one query's span breakdown for ?debug=trace: the
// serving-boundary spans measured here plus the engine's stage timings
// from QueryStats, all under the request id the front door minted.
func (s *Server) buildTrace(ctx context.Context, decode, wait time.Duration, qs core.QueryStats) *telemetry.Trace {
	tr := &telemetry.Trace{RequestID: telemetry.RequestIDFrom(ctx)}
	tr.Add("server:decode", decode)
	// wait is the coalescer's own enqueue → dispatch measurement: how long
	// the query was held behind a busy engine, ≈0 when it found it idle.
	if wait > 0 {
		tr.Add("server:coalesce_wait", wait)
	}
	tr.Add("engine:filter_m", qs.FilterMTime)
	tr.Add("engine:filter_gc", qs.FilterGCTime)
	// The GC stage's parts, from the in-process fields no reply carries.
	tr.Add("engine:feature", qs.FeatureTime)
	tr.Add("engine:probe", qs.ProbeTime)
	tr.Add("engine:gcverify", qs.GCVerifyTime)
	tr.Add("engine:verify", qs.VerifyTime)
	tr.Add("engine:total", qs.TotalTime())
	return tr
}

// logQuery emits the sampled per-query structured log line: every
// Options.LogEvery-th served query, with its request id and stage
// timings, so fleet logs carry a grep-able latency trace at bounded
// volume.
func (s *Server) logQuery(ctx context.Context, qs core.QueryStats, served time.Duration) {
	if s.opts.LogEvery <= 0 {
		return
	}
	if n := s.reqCount.Add(1); n%int64(s.opts.LogEvery) != 0 {
		return
	}
	s.opts.Logger.Info("query served",
		"component", "gcserved",
		"request_id", telemetry.RequestIDFrom(ctx),
		"serial", qs.Serial,
		"served_ms", float64(served.Microseconds())/1000,
		"filter_m_ms", float64(qs.FilterMTime.Microseconds())/1000,
		"filter_gc_ms", float64(qs.FilterGCTime.Microseconds())/1000,
		"verify_ms", float64(qs.VerifyTime.Microseconds())/1000,
		"candidates_final", qs.CandidatesFinal,
		"answer", qs.AnswerSize,
		"exact_hit", qs.ExactHit,
		"empty_shortcut", qs.EmptyShortcut,
	)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	qs, _, ok := s.wire.ReadGraphs(w, r, false)
	if !ok {
		return
	}
	if !s.admit(len(qs)) {
		writeShed(w)
		return
	}
	defer s.done(len(qs))
	if r.Context().Err() != nil {
		return
	}
	// Either way the batch runs under the request context: a client that
	// disconnects cancels it, the cache abandons unstarted verification,
	// and there is no one left to write to.
	if Accepts(r, ContentTypeNDJSON) {
		// One StreamResult line per query, flushed as its verification
		// completes; the stream simply ends when the client leaves.
		st := s.wire.Stream(w, r, len(qs))
		s.runBatch(r.Context(), qs, func(i int, res core.Result) {
			st.Deliver(&StreamResult{Index: i, Answer: res.Answer, Stats: res.Stats})
		})
		st.Close()
		return
	}
	resp := make([]QueryResponse, len(qs))
	completed := s.runBatch(r.Context(), qs, func(i int, res core.Result) {
		resp[i] = QueryResponse{Answer: res.Answer, Stats: res.Stats}
	})
	if completed {
		s.wire.WriteResults(w, resp, false)
	}
}

// runBatch runs qs through the cache as one run — a coalesced run or an
// explicit /querybatch — and reports whether it ran to completion. Each
// result is folded into the metrics as it is delivered, before deliver
// hands it on, so the metrics count a query before its client has the
// answer; a run cut short still counts the queries it delivered, and
// moves the cancellation counters.
func (s *Server) runBatch(ctx context.Context, qs []*graph.Graph, deliver func(i int, res core.Result)) bool {
	s.met.batchSize.Observe(float64(len(qs)))
	batched := len(qs) > 1
	abandoned, err := s.cache.QueryBatchStream(ctx, qs, func(i int, res core.Result) {
		s.met.observeQuery(&res.Stats, batched)
		deliver(i, res)
	})
	if err != nil {
		s.met.streamCancelled.Inc()
		s.met.streamAbandoned.Add(float64(abandoned))
	}
	return err == nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.cache.Method()
	goVersion, build := telemetry.BuildInfo()
	WriteJSON(w, http.StatusOK, StatsResponse{
		Totals:        s.cache.Totals(),
		Cached:        len(s.cache.CachedSerials()),
		Method:        m.Name(),
		Mode:          m.Mode().String(),
		Shed:          s.shed.Load(),
		Warmed:        s.warmed.Load(),
		DatasetEpoch:  s.cache.DatasetEpoch(),
		MutationSeq:   s.cache.LastMutationSeq(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     goVersion,
		Build:         build,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The router's health probe doubles as its epoch feed: every probe
	// reports how far this backend's dataset has advanced.
	w.Header().Set(epochHeader, fmt.Sprintf("%d", s.cache.DatasetEpoch()))
	fmt.Fprintln(w, "ok")
}

// handleSnapshot streams the live cache as a checksummed snapshot — the
// same format the snapshot file uses — so a joining replica (or an
// operator's curl) can warm itself from a running peer without stopping
// it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-gcsnapshot")
	if _, err := writeCheckedSnapshot(s.cache, w); err != nil {
		// Headers are gone; the truncated stream fails the receiver's
		// checksum, which is exactly the protection the trailer buys.
		logf("server: streaming snapshot: %v", err)
	}
}

// handleWarm loads this server's cache from a peer's snapshot
// (POST /warm {"from": "host:port"}) — the receiving half of snapshot
// shipping. The router calls it on a joining replica before admitting it
// to the ring; gcserved -warm-from calls it at startup.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req WarmRequest
	if !ReadJSON(w, r, s.opts.MaxBodyBytes, &req) {
		return
	}
	if req.From == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing peer in \"from\""))
		return
	}
	resp, err := s.WarmFrom(r.Context(), req.From)
	if err != nil {
		WriteError(w, http.StatusBadGateway, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// decodeMutation translates a wire mutation into a core one. Add and
// edit payloads arrive as t/v/e text; remove is IDs only.
func decodeMutation(req MutateRequest) (dataset.Mutation, error) {
	op, ok := dataset.ParseOp(req.Op)
	if !ok {
		return dataset.Mutation{}, fmt.Errorf("unknown mutation op %q (want add, remove or edit)", req.Op)
	}
	mut := dataset.Mutation{Op: op, IDs: req.IDs, Seq: req.Seq}
	if req.Graphs != "" {
		gs, err := decodeGraphs(req.Graphs)
		if err != nil {
			return dataset.Mutation{}, err
		}
		mut.Graphs = gs
	}
	return mut, nil
}

// handleMutate applies one dataset mutation: validate, journal
// (append+fsync) when a journal is configured, apply, acknowledge.
// Handlers are serialised by mutMu so the journal order matches the
// apply order; queries keep flowing — Cache.ApplyMutation takes its own
// short exclusivity window for the swap itself.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if !ReadJSON(w, r, s.opts.MaxBodyBytes, &req) {
		return
	}
	mut, err := decodeMutation(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	// Idempotent replay: an already-applied seq is acked (it *is* durably
	// applied) without re-journaling or re-applying.
	if req.Seq != 0 && req.Seq <= s.cache.LastMutationSeq() {
		WriteJSON(w, http.StatusOK, MutateResponse{
			Applied: false, Epoch: s.cache.DatasetEpoch(), Seq: s.cache.LastMutationSeq(),
		})
		return
	}
	if err := s.cache.ValidateMutation(mut); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Journal before apply: the record's epoch is the epoch the mutation
	// will produce. A crash between fsync and apply replays the record on
	// restart — an unacked-but-durable mutation, indistinguishable from a
	// lost ack and reconciled by the client retrying its seq.
	if s.jr != nil {
		rec := journalRecord{Seq: req.Seq, Epoch: s.cache.DatasetEpoch() + 1,
			Op: req.Op, IDs: req.IDs, Graphs: req.Graphs}
		if mut.Op == dataset.OpAdd {
			// ID assignment is positional and mutMu is held, so the IDs
			// this add will produce are known before the apply; recording
			// them lets truncation coalesce this add against later
			// removes (see coalesceRecords).
			next := int32(s.cache.Method().Dataset().Len())
			rec.AddedIDs = make([]int32, len(mut.Graphs))
			for i := range rec.AddedIDs {
				rec.AddedIDs[i] = next + int32(i)
			}
		}
		if err := s.jr.append(rec); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	res, err := s.cache.ApplyMutation(mut)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, MutateResponse{
		Applied:       res.Applied,
		Epoch:         res.Epoch,
		Seq:           res.Seq,
		AddedIDs:      res.AddedIDs,
		RemovedIDs:    res.RemovedIDs,
		Extended:      res.Extended,
		Reverified:    res.Reverified,
		Invalidated:   res.Invalidated,
		WindowPatched: res.WindowPatched,
	})
}

// WarmFrom replaces the cache contents with a snapshot fetched from
// peer's GET /snapshot. The fetch holds no lock. The swap holds mutMu, so
// it lands between two mutations and their journal appends, and
// Cache.ReadSnapshot takes the cache to itself: queries that arrive
// during the swap wait for it, and in-flight ones finish first. On any
// failure the cache is left as it was.
func (s *Server) WarmFrom(ctx context.Context, peer string) (WarmResponse, error) {
	body, err := fetchSnapshot(ctx, peer)
	if err != nil {
		return WarmResponse{}, err
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if err := s.cache.ReadSnapshot(bytes.NewReader(body)); err != nil {
		return WarmResponse{}, fmt.Errorf("server: loading snapshot from %s: %w", peer, err)
	}
	// The local journal described the pre-warm history; the warmed state
	// (dataset delta included) now comes from the peer snapshot, whose
	// epoch the replayed journal prefix is part of. Keep only records
	// past the landed epoch — in the common join case, none.
	if s.jr != nil {
		if err := s.jr.truncateThrough(s.cache.DatasetEpoch()); err != nil {
			logf("server: truncating journal after warm-up: %v", err)
		}
	}
	s.warmed.Add(1)
	s.met.warmTotal.Inc()
	return WarmResponse{From: peer, Cached: len(s.cache.CachedSerials()), Epoch: s.cache.DatasetEpoch()}, nil
}
