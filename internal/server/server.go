// Package server is gcserved's serving subsystem: it front-ends one
// core.Cache (and therefore one Method M) for many network clients, the
// deployment shape of the paper's GraphCache *system*. Three pieces:
//
//   - an HTTP/JSON API over the t/v/e graph wire codec (POST /query,
//     POST /querybatch, GET /stats, GET /healthz);
//   - one run of the cache's query pipeline per request, on the
//     request's own goroutine: a /query is a run of one, a /querybatch a
//     run of its batch, and concurrent requests run side by side over the
//     cache's shared, bounded verification pool;
//   - the snapshot lifecycle of the paper's Cache Manager: Start loads
//     cache contents from disk, Shutdown drains in-flight requests and
//     writes them back.
//
// Client (client.go) is the matching Go client, shared by tests, by
// `gcquery -server`, by the router tier and by applications. It speaks
// HTTP/1.1 itself, one exchange per call on the caller's goroutine over
// the package's keep-alive pool (exchange.go).
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
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
	// not cover, and each snapshot write, once durable, empties the
	// journal. With it, a SIGKILL at any instant loses zero acked
	// mutations.
	JournalPath string
	// MaxBatch bounded the runs a request coalescer formed from
	// concurrent single queries. Each /query is now a run of its own.
	//
	// Deprecated: ignored.
	MaxBatch int
	// MaxDelay bounded how long that coalescer held a query behind a
	// busy engine. No query is held.
	//
	// Deprecated: ignored.
	MaxDelay time.Duration
	// ShedThreshold caps the queries admitted concurrently across
	// /query and /querybatch; past it the server sheds with 429 and a
	// Retry-After hint instead of queueing without bound (0 disables —
	// a router in front usually owns the shedding policy).
	ShedThreshold int
	// Logger receives lifecycle logs (default slog.Default()).
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
	return o
}

// RequestBodyLimit bounds a request body on both tiers.
const RequestBodyLimit = 64 << 20

// Server serves one Cache over HTTP. Construct with New, then either
// Start/Serve/Shutdown for the daemon lifecycle or Handler for embedding
// in an existing mux (tests use httptest around it).
type Server struct {
	cache *core.Cache
	opts  Options
	mux   *http.ServeMux
	ln    *Listener

	admitted atomic.Int64 // queries admitted and not yet answered

	snapStop chan struct{} // closed by Shutdown to stop the periodic snapshot loop
	snapDone chan struct{}
	snapOnce sync.Once

	// mutMu serialises POST /mutate handlers, warm-ups and snapshot file
	// writes: the journal append and the cache apply must land in the
	// same order, the record's epoch (current+1) is only deterministic
	// under the lock, and emptying the journal after a snapshot is sound
	// only if no mutation landed between the two.
	// jr is nil when no JournalPath is configured.
	mutMu sync.Mutex
	jr    *journal

	// met is the server's metric surface (see metrics.go), wire its
	// format negotiation with the codec metrics, reg the registry behind
	// GET /metrics; start anchors uptime_seconds.
	met   *serverMetrics
	wire  *Wire
	reg   *telemetry.Registry
	start time.Time
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
// passes, folds every query it runs before writing its reply and every
// mutation it applies (journal replay included) from its MutationResult,
// and serves the registry at GET /metrics.
func New(c *core.Cache, opts Options) *Server {
	opts = opts.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Server{
		cache: c,
		opts:  opts,
		mux:   http.NewServeMux(),
		ln:    NewListener(opts.Addr),
		met:   newServerMetrics(reg),
		wire:  NewWire(reg, "graphcache_server", RequestBodyLimit),
		reg:   reg,
		start: time.Now(),
	}
	c.SetObserver(s.met)
	reg.GaugeFunc("graphcache_server_admitted_queries", "Queries admitted and not yet answered.",
		func() float64 { return float64(s.admitted.Load()) })
	reg.GaugeFunc("graphcache_cached_queries", "Queries cached right now.",
		func() float64 { return float64(len(c.CachedSerials())) })
	reg.GaugeFunc("graphcache_dataset_epoch", "Dataset mutation epoch (0 = never mutated).",
		func() float64 { return float64(c.DatasetEpoch()) })
	s.mux.HandleFunc("POST /query", s.serveQueries)
	s.mux.HandleFunc("POST /querybatch", s.serveQueries)
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
// rides the request context to handlers and traces — and,
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
	if err := s.ln.Listen(s.Handler()); err != nil {
		return fmt.Errorf("server: %w", err)
	}
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
		mut, err := decodeMutation(rec.MutateRequest)
		if err != nil {
			return fmt.Errorf("server: decoding journal record at epoch %d: %w", rec.Epoch, err)
		}
		res, err := s.cache.ApplyMutation(mut)
		if err != nil {
			return fmt.Errorf("server: replaying journal record at epoch %d: %w", rec.Epoch, err)
		}
		s.met.observeMutation(mut.Op, &res)
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
func (s *Server) Addr() string { return s.ln.Addr() }

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (s *Server) Serve() error { return s.ln.Serve() }

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
	if err := s.ln.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("server: %w", err))
	}
	if s.opts.SnapshotPath != "" {
		if err := s.persist(); err != nil {
			errs = append(errs, err)
		}
	}
	if s.jr != nil {
		if err := s.jr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: closing mutation journal: %w", err))
		}
	}
	return errors.Join(errs...)
}

// persist writes the snapshot file, then empties the journal, under
// mutMu so no mutation or warm-up lands between the two. Two invariants
// guard the emptying: the snapshot's rename is durable (a failed write or
// directory sync returns before it), and no journaled record lies above
// the snapshot's epoch. A journal kept by either only costs replay time:
// replay skips covered epochs. A failed truncation is logged, not fatal,
// for the same reason.
func (s *Server) persist() error {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	epoch := s.cache.DatasetEpoch()
	if err := writeSnapshotFile(s.cache, s.opts.SnapshotPath); err != nil {
		return err
	}
	switch {
	case s.jr == nil:
	case s.jr.last > epoch:
		logf("server: journal holds epoch %d above the snapshot's %d; keeping it", s.jr.last, epoch)
	default:
		if err := s.jr.truncate(0, 0); err != nil {
			logf("server: emptying mutation journal: %v", err)
		}
	}
	return nil
}

// fsync flushes a file's contents, or a directory's entries, to stable
// storage. It is a variable so durability tests can observe the calls and
// fail them.
var fsync = (*os.File).Sync

// writeSnapshotFile writes the cache snapshot atomically and durably: to
// a temp file in the target directory, fsynced, then renamed over the
// target, and the directory synced, so neither a crash mid-write nor a
// power loss right after the rename can install a truncated or empty
// snapshot, and a nil return means the new name is on disk. The payload
// carries the checksum trailer, so corruption the rename discipline
// cannot prevent is still detected at load.
func writeSnapshotFile(c *core.Cache, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".gcsnapshot-*")
	if err != nil {
		return fmt.Errorf("server: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writeCheckedSnapshot(c, tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	// Without the fsync, Rename could install a name pointing at data
	// still in the page cache; a power loss would then leave an empty
	// snapshot under the target path.
	if err := fsync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("server: syncing snapshot temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: closing snapshot temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: installing snapshot: %w", err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("server: opening snapshot directory: %w", err)
	}
	defer dir.Close()
	if err := fsync(dir); err != nil {
		return fmt.Errorf("server: syncing snapshot directory: %w", err)
	}
	return nil
}

// ---- Handlers ----------------------------------------------------------

// admit reserves n queries of serving capacity, refusing when the
// admitted total would cross ShedThreshold. Pair a true return with
// done(n). With ShedThreshold 0 admission is unbounded, but still
// counted for the admitted-queries gauge.
func (s *Server) admit(n int) bool {
	if s.admitted.Add(int64(n)) > int64(s.opts.ShedThreshold) && s.opts.ShedThreshold > 0 {
		s.admitted.Add(int64(-n))
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

// serveQueries answers POST /query and POST /querybatch alike: the
// request's queries are one run of the pipeline on the request's
// goroutine, under its context — a client that disconnects cancels the
// run, the cache abandons unstarted verification, and there is no one
// left to write to. The reply goes out after the run's bookkeeping and
// after the metrics count its queries, so every query is in the window,
// the totals and a scrape when its client reads the answer. The route
// decides only the reply envelope and /query's one-graph check;
// ?debug=trace gives every result its trace on either.
func (s *Server) serveQueries(w http.ResponseWriter, r *http.Request) {
	single := IsSingleQuery(r)
	qs, decDur, ok := s.wire.ReadGraphs(w, r, single)
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
	s.met.batchSize.Observe(float64(len(qs)))
	results, abandoned, err := s.cache.QueryBatchContext(r.Context(), qs)
	if err != nil {
		s.met.streamCancelled.Inc()
		s.met.streamAbandoned.Add(float64(abandoned))
		return
	}
	var traces []*telemetry.Trace
	if WantsTrace(r) {
		traces = make([]*telemetry.Trace, len(results))
	}
	for i := range results {
		s.met.observeQuery(&results[i].Stats, len(qs) > 1)
		if traces != nil {
			traces[i] = s.buildTrace(r.Context(), decDur, results[i].Stats)
		}
	}
	s.wire.WriteResults(w, len(results), single, func(i int) QueryResponse {
		qr := QueryResponse{Answer: results[i].Answer, Stats: results[i].Stats}
		if traces != nil {
			qr.Trace = traces[i]
		}
		return qr
	})
}

// buildTrace assembles one query's span breakdown for ?debug=trace: the
// serving-boundary spans measured here plus the engine's stage timings
// from QueryStats, all under the request id the front door minted. Its
// server:decode is the whole request's decode, which a batch's queries
// share.
func (s *Server) buildTrace(ctx context.Context, decode time.Duration, qs core.QueryStats) *telemetry.Trace {
	tr := &telemetry.Trace{RequestID: telemetry.RequestIDFrom(ctx)}
	tr.Add("server:decode", decode)
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

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.cache.Method()
	goVersion, build := telemetry.BuildInfo()
	WriteJSON(w, http.StatusOK, StatsResponse{
		Totals:        s.cache.Totals(),
		Cached:        len(s.cache.CachedSerials()),
		Method:        m.Name(),
		Mode:          m.Mode().String(),
		Shed:          int64(s.met.shedTotal.Value()),
		Warmed:        int64(s.met.warmTotal.Value()),
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
	if err := writeCheckedSnapshot(s.cache, w); err != nil {
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
	if !ReadJSON(w, r, RequestBodyLimit, &req) {
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
	if !ReadJSON(w, r, RequestBodyLimit, &req) {
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
		WriteJSON(w, http.StatusOK, MutateResponse{Epoch: s.cache.DatasetEpoch(), Seq: s.cache.LastMutationSeq()})
		return
	}
	if err := s.cache.ValidateMutation(mut); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Journal before apply: the record's epoch is the epoch the mutation
	// will produce. A crash between fsync and apply replays the record on
	// restart — an unacked-but-durable mutation, indistinguishable from a
	// lost ack and reconciled by the client retrying its seq. A failed
	// apply takes its record back out before answering.
	var size, last int64
	if s.jr != nil {
		size, last = s.jr.size, s.jr.last
		if err := s.jr.append(journalRecord{MutateRequest: req, Epoch: s.cache.DatasetEpoch() + 1}); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	res, err := s.cache.ApplyMutation(mut)
	if err != nil {
		if s.jr != nil {
			err = errors.Join(err, s.jr.truncate(size, last))
		}
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.met.observeMutation(mut.Op, &res)
	WriteJSON(w, http.StatusOK, res)
}

// WarmFrom replaces the cache contents with a snapshot fetched from
// peer's GET /snapshot. The fetch holds no lock. The swap holds mutMu, so
// it lands between two mutations and their journal appends, and
// Cache.ReadSnapshot takes the cache to itself: queries that arrive
// during the swap wait for it, and in-flight ones finish first. If the
// snapshot does not load, the cache is left as it was.
//
// The landed state, dataset delta included, is the peer's, so no record
// of the local journal may survive it: replay would re-apply mutations
// the warm-up discarded, or stop on an epoch gap. The journal is emptied,
// after the landed state is written to SnapshotPath when that is set, so
// a restart resumes from the peer's state plus what was journalled
// since. If that write fails (its directory sync included) the snapshot
// file is removed, and the warm-up reports every failure of these steps as
// its error. Without a snapshot file a restart starts from the dataset
// file at epoch 0, where the router diverts around it; replay refuses
// mutations journalled after the warm-up on the epoch gap unless the peer
// was at epoch 0.
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
	var errs []error
	if s.opts.SnapshotPath != "" {
		if err := writeSnapshotFile(s.cache, s.opts.SnapshotPath); err != nil {
			errs = append(errs, fmt.Errorf("server: persisting the snapshot warmed from %s: %w", peer, err))
			if err := os.Remove(s.opts.SnapshotPath); err != nil && !errors.Is(err, os.ErrNotExist) {
				errs = append(errs, fmt.Errorf("server: removing the snapshot file: %w", err))
			}
		}
	}
	if s.jr != nil {
		if err := s.jr.truncate(0, 0); err != nil {
			errs = append(errs, fmt.Errorf("server: emptying the journal after warm-up: %w", err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return WarmResponse{}, err
	}
	s.met.warmTotal.Inc()
	return WarmResponse{From: peer, Cached: len(s.cache.CachedSerials()), Epoch: s.cache.DatasetEpoch()}, nil
}
