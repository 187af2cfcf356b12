// Package graphcache is a semantic caching system for subgraph and
// supergraph queries over graph datasets — a from-scratch Go implementation
// of "GraphCache: A Caching System for Graph Queries" (Wang, Ntarmos &
// Triantafillou, EDBT 2017).
//
// # The problem
//
// A graph query is itself a small labelled graph g. Against a dataset
// D = {G_1 … G_n}, a subgraph query returns every G_i that contains g
// (g ⊆ G_i); a supergraph query returns every G_i contained in g. Both
// entail the NP-complete subgraph-isomorphism test, so query processors
// either run a sub-iso algorithm against every dataset graph (the SI
// methods: VF2, VF2+, GraphQL, …) or first prune the dataset with a
// feature index and verify only the survivors (the filter-then-verify,
// FTV, methods: GraphGrepSX, Grapes, CT-Index, …).
//
// # What GraphCache adds
//
// GraphCache sits in front of any such "Method M" and remembers past
// queries together with their answer sets. A new query q benefits not only
// from an exact (isomorphic) hit but from any cached query g' related to
// it by containment:
//
//   - if q ⊆ g', every graph in the answer set of g' is an answer for q and is
//     lifted out of the candidate set (Eq. 1 of the paper);
//   - if g' ⊆ q, no graph outside the answer set of g' can be an answer for q,
//     so the candidate set is intersected with it (Eq. 2);
//   - if g' ⊆ q and the answer set of g' is empty, q's answer is provably
//     empty and no verification runs at all.
//
// The pruning rules are sound — a Cache always returns exactly the answer
// the wrapped method would, never a false positive or negative.
//
// Cache contents are managed in batches through a Window, with an optional
// admission-control filter that keeps inexpensive queries from polluting
// the cache, and one of five replacement policies: LRU, POP, PIN, PINC and
// the hybrid HD, which picks between PIN and PINC at eviction time from
// the coefficient of variation of the observed savings.
//
// # Concurrency
//
// The query engine is concurrent on two axes, mirroring the paper's sized
// thread pools (§4, Figure 2). A Cache is safe for any number of
// concurrent Query callers: serials are assigned atomically, the GCindex
// snapshot is read lock-free, window appends are mutex-guarded and a
// run's hit statistics are credited to the cached entries, with its
// totals, in one critical section of the ledger lock. Within a
// single run, Method M's verification stage and the GC processors'
// containment confirmations fan out over a bounded worker pool sized by
// Options.VerifyConcurrency (default runtime.GOMAXPROCS(0); 1 disables
// the cache's own fan-out — methods with internal verification
// parallelism, like Grapes with multiple threads, keep their own pool).
// The pool's extra workers are shared across all concurrent callers: N
// callers run at most N + VerifyConcurrency − 1 verification workers in
// total, not N × VerifyConcurrency. Each work list's fan-out is sized
// from its own length — one worker per four tests, up to the pool — so a
// handful of cheap tests does not wake the full pool. Answers are
// deterministic and id-ordered at any pool size and under any caller
// interleaving.
//
// The cached-query store is one GCindex generation, published atomically:
// queries load it once per run and read it without locks. The Window is
// one list under one mutex. A cached query is one record: its graph,
// answer, feature vector and hash, the figures of its first execution and
// its hit counters, so the Statistics Manager (§6.1) is a view over the
// entries (Cache.EntryStats) and nothing keyed by serial is kept beside
// the index; replacement ranks every cached query together (§6.3). Index
// maintenance applies each window's add/evict delta to the previous
// GCindex generation using each entry's feature vector (extracted once,
// on the query path, shared with the probe), so no cached graph's paths
// are enumerated again. What a delta does cost is a few memmove-like passes
// over the index's flat posting arrays — O(postings in the index) per
// window, no map.
//
// A window pass runs on the query that fills the window, after that
// query's answer is assembled and before its call returns; its time is
// counted in Totals.MaintenanceTime, not in QueryStats.TotalTime. Filled
// windows queue for one drain at a time (group commit): a caller that
// fills a window while another caller's drain is running leaves it to that
// drain and returns, so concurrent callers never queue behind one another,
// and the drain applies the windows in the order they filled. One
// caller's query order therefore makes the same admission and eviction
// decisions at any speed and core count. Flush is the barrier "every
// window queued before this call is applied"; snapshot writes run it. A
// pass runs inside its query's read lock on the mutation gate, so once a
// mutation or a snapshot load holds the write lock, no pass is running or
// queued.
//
// This departs from the paper, which rebuilds the index in the background
// while queries are served from the old one. Measured with one caller (HD,
// C = 100, W = 20, five seeds; GGSX with ZZ streams, VF2+ with UU streams),
// background passes made decisions that changed from run to run, and ran
// between 6.7 % fewer and 17 % more sub-iso tests than passes on the query
// path on ZZ, between 1.3 % fewer and 0.8 % more on UU, the sign changing
// with the seed. A deterministic background pass, installed when the next
// window closes, ran between 0.5 % fewer and 35 % more on ZZ and 0.9–4.6 %
// more on UU. A pass took 0.16–0.23 ms and is paid by one windowed query
// in W; exact hits skip the Window.
//
// # GCindex internals
//
// GCindex is one combined subgraph/supergraph feature index over the
// cached query graphs. It answers two questions, cheapest first. The
// exact-match lookup: every slot records its entry's isomorphism-invariant
// key (graph.IsoKey — two rounds of Weisfeiler–Lehman colour refinement
// over the labels and the adjacency, O(|V|+|E|), no allocation up to 64
// vertices) in a pointer-free []uint64 column. Isomorphic queries have
// equal keys, so "is this very query cached?" is a key computation plus a
// scan of one column for a slot of equal key, vertex count and edge count
// — confirmed by a sub-iso test before it counts, because equal keys prove
// nothing (a uniformly labelled C10 and C5 + C5 are both 2-regular, which
// colour refinement cannot tell apart). A query the lookup answers never
// has its simple paths enumerated. The containment probe — run once per
// query the lookup did not answer — is the hottest loop in the system.
// Two ingredients keep it allocation-free:
//
//   - Feature vectors without a vocabulary. A feature's ID is the 64-bit
//     FNV-1a hash of its key (a label sequence), so IDs need no interning,
//     no lock and no table of every feature ever seen. A query's features
//     are extracted once, straight into a feature vector — ID-sorted
//     (ID, count) pairs, each path's ID derived from its prefix's as the
//     enumeration descends, sorted by one bucket pass on the IDs' top
//     bits, no key strings and no map — that is then reused everywhere
//     the query goes: Method M's filter when M indexes the same vectors
//     (GGSX at the cache's path length: posting columns per feature ID,
//     found through a directory over the IDs' top bits and intersected
//     from the query's shortest column, a dense column by one bit of its
//     bitmap — see internal/ggsx), the index probe, the admission window
//     entry and the index delta. Only the queries the exact lookup left
//     open are extracted. Two keys that collide on an ID have their counts summed, in
//     every vector alike. Containment q ⊆ G implies count_G(p) ≥
//     count_q(p) for every path p, hence also for sums over paths sharing
//     an ID: a collision can add a false candidate, never hide a true
//     one, and every candidate is confirmed by a sub-iso test — answers
//     stay exact.
//
//   - Flat postings, GGSX's layout (pathfeat.Columns). Each indexed query
//     occupies a slot, slots are numbered in ascending-serial order, and
//     four pointer-free arrays hold, for each feature ID in ascending
//     order, its (slot, count) postings sorted by slot — only for features
//     some slot holds, so the index is sized by the cached entries, not by
//     the queries served. A probe finds the query vector's columns
//     through the same directory, one step each, bumping two flat
//     []int32 counters (dominated-features and covered-features per slot,
//     pooled scratch), then scans the slots once: fully-dominated slots
//     are sub-candidates, fully-covered ones super-candidates — already in
//     ascending serial order because slot order is serial order. No sort,
//     zero allocations at steady state (BenchmarkCandidates pins 0
//     allocs/op).
//
// A window delta never writes to a published generation, which concurrent
// probes may be reading; no posting columns are written after they are
// built. The delta merges the surviving slots with the admitted entries by
// serial, which numbers the new slots, and lays the admitted entries'
// postings out as columns of their own (pathfeat.Build: a
// least-significant-digit radix sort on the feature, one byte per pass).
// One forward pass (pathfeat.Columns.Renumber) then writes the new
// generation's columns: the old postings renumbered through that slot map
// (evicted slots dropped with the columns they alone used), merged with
// the admitted ones, and the directory and dense-column bitmaps with them. That is a fixed number of allocations and
// O(postings in the index) memmove-like work per window — no map, no
// comparison sort, no tombstones. Tests pin the result to a from-scratch build, array for
// array, and the probe to a map-based reference implementation on
// randomly mutated caches.
//
// # One query pipeline
//
// The engine has one staged pipeline and three entry points into it.
// Cache.QueryBatchContext is the pipeline: a short driver that runs the
// nine stages of §4, Figure 2 over one run record, in order on the
// calling goroutine and the shared worker pool, cheapest first and each
// over the queries the earlier ones left open — lookup (the exact-match
// lookup, §5.1 special case 1), extractFeatures, probe (the GCindex
// probe), confirm (the containment confirmations, then special case 2: a
// cached empty answer that proves the query's empty), filter (Method M's
// filter), prune (the Candidate Set Pruner, Eq. 1/2), verify (Method M's
// verification), results (each query's answer and its share of the
// verification stage) and bookkeep (credits, the Window, Totals). Figure
// 2 runs Method M's filter beside the GC processors; here it runs after
// them, because the overlap measured slower, not faster, on a 2-core VM
// (BenchmarkPipelineStages, GGSX, 12 alternating pairs: ZZ 61.2 µs per
// query in order against 69.3 µs overlapped, UU 136.1 against 159.9), and
// its goroutine outlived the run and needed a mutation gate of its own.
// Each stage is a method of the run in internal/core, documented there;
// each is the only writer of its QueryStats fields. The run returns its
// Results, aligned with its input, once bookkeep is done, so every query
// is in the Window and in Totals when its caller reads the answer.
// Cache.QueryBatch is the pipeline without a deadline, and Cache.Query is
// the pipeline over one query. An exact hit therefore costs one
// isomorphism-invariant key,
// one column scan and one small-vs-small sub-iso test: its paths are not
// enumerated, Method M's filter is not called for it, and it takes no
// probe scratch. In the statistics an exact hit has GCVerifications = 1
// (the confirmation) and no Containers or Containees — Totals.ContainerHits
// and ContaineeHits count non-exact queries, as the container/containee
// series of graphcache_query_hits_total always did. For a batch, the
// index generation is loaded once, the open queries are probed in a
// single pass, their GC containment confirmations and Method-M
// verifications flatten into one pooled dispatch per stage, and the whole
// batch's hit statistics land in one critical section. Answers are
// exactly those of sequential Query calls — the pruning rules are sound,
// so answers never depend on cache contents — id-ordered and
// deterministic. A query proven empty never reaches Method M's filter,
// and a run whose context dies abandons its unstarted verification,
// returns no results and leaves no trace in the cache. A run of one query is not a batch to the outside: it does not count in
// Totals.Batches, gcserved counts it under
// graphcache_queries_total{path=single}, and its stage timings are exact
// rather than shares. BenchmarkQueryBatch tracks the
// amortisation (batched execution is never slower than sequential and
// wins on multi-core machines); BenchmarkQueryCached the cost of a lone
// query on a repeating stream, BenchmarkQueryExactHit that of an exact
// hit alone.
//
// # Serving over the network
//
// GraphCache deploys as a standalone service with cmd/gcserved — the
// paper's caching system front-ending one Method M for many clients:
//
//	gcgen dataset -name aids -count-factor 0.01 -o aids.g
//	gcserved -dataset aids.g -method ggsx -snapshot aids.snap &
//	gcquery -server 127.0.0.1:7621 -queries queries.g
//
// The daemon speaks an HTTP/JSON API whose payloads embed graphs in the
// same t/v/e text format datasets ship in, so non-Go clients need no
// codec beyond printing a graph file: POST /query answers one query,
// POST /querybatch a batch (one run of the pipeline), GET /stats reports
// the lifetime totals and GET /healthz liveness. Each request is one run
// of the pipeline on the request's own goroutine, as in the paper's §4
// runtime: a /query is a run of one, a /querybatch a run of its batch,
// and one handler serves both routes — the route picks only the reply
// envelope and /query's one-graph check. Concurrent requests run side by
// side — Cache is safe for concurrent callers and their verification
// shares one bounded worker pool — so no query waits for another's run,
// and a reply is written once its run's bookkeeping is done: a client
// that has its answer finds the query in the totals and the window.
// Singles are not held back to share a run: the sub-iso work concurrent
// singles share measured under 2 %, far less than the wait for a run in
// flight costs them. With -snapshot, cache contents load on start and
// persist on SIGTERM through graceful shutdown — the paper's Cache
// Manager lifecycle at the daemon boundary.
//
// In Go, NewServer embeds the same serving subsystem in any process and
// NewServerClient is the matching client; see examples/server for a
// complete program.
//
// # Wire protocol
//
// Requests: JSON or GCBF; replies: JSON, one envelope per request — a
// /querybatch reply holds the whole batch. Every layer accepts both
// request formats per message and answers are byte-identical across
// them and across transports, so text and binary clients never disagree.
//
// Framing. The default request is the JSON envelope around t/v/e text
// described above. The compact alternative is a length-prefixed binary
// frame: magic "GCBF" + version byte + uvarint graph count, then one
// uvarint-length-prefixed body per graph (zigzag-varint id, a label
// table, vertex label indices, and delta-encoded edges — typically 4x
// smaller than the JSON envelope, and 13x cheaper to encode). The
// per-graph length prefixes make torn frames detectable and let a reader
// bound-check without decoding. Replies have no binary form: answers
// are short ID lists under a stats record, and a binary result frame
// measured 0.95x the JSON bytes at 2.5x the encode time. The result
// envelopes are coded by hand instead of through reflection, byte for
// byte what encoding/json writes and reads (tests pin both directions).
//
// Negotiation. Content-Type: application/x-gc-binary marks a binary
// request body; anything else means JSON. The Accept header is not
// read: every value gets the JSON envelope (never a 406). In Go,
// ServerClientOptions.WireBinary makes a client send binary frames;
// gcquery takes -wire text|binary. A router answers each of its own
// clients in JSON whatever request format they chose, and always sends
// binary frames to its backends — from a backend's first dispatch, with
// no capability discovery: fleet members are built from one tree, so
// every gcserved a gcrouter can front reads GCBF.
//
// Forwarding. A query graph is parsed once per tier. The router never
// rebuilds a graph from a binary request: it splits the frame into its
// per-graph bodies, checks each exactly as a backend's decoder would (so
// it refuses with 400 exactly the frames a backend would), reads each
// body's IsoKey straight off its bytes, and sends each backend one frame
// of that backend's bodies, byte for byte as the client sent them, in
// request order. A single query is a batch of one at every hop: the
// router sends a /query's graph to its home's POST /querybatch as a
// frame of one body, and answers its client with the bare envelope
// /query promises. A text request is parsed and transcoded to bodies
// once, at the router's door. gcserved decodes a frame straight into each
// graph's final arrays: GCBF's canonical edge order fills the CSR
// adjacency with no sort.
//
// Cancellation. A client that walks away before its reply — it closes
// the connection, or its context is cancelled or times out — cancels the
// request's context, on a /query and a /querybatch alike, since both run
// the one pipeline (Cache.QueryBatchContext) under that context. The
// server then skips every verification chunk that has not started; a
// run that skipped any returns no results, so gcserved writes no reply
// and meters none of its queries, and it leaves no trace in the cache.
// A router dispatches every group of a batch under the request's
// context, so the cancellation reaches each backend it called. A chunk
// that has started runs to its end. Most methods split a query's
// candidates into several chunks, but a method.BatchVerifier (Grapes1,
// Grapes6) verifies each query as one chunk, in one VerifyBatch call
// that takes no context: a Grapes query whose chunk has started runs all
// of its sub-iso tests even after its client has left. Cut runs and
// skipped verifications are counted
// (graphcache_server_stream_cancelled_total,
// graphcache_server_stream_abandoned_verifications_total), which
// TestRouterStreamCancellationPropagates asserts on through a router.
//
// Router payloads. A router's POST /mutate and GET /stats replies are
// JSON supersets of gcserved's because the router's reply types embed
// gcserved's (MutateResponse, StatsResponse) and redeclare none of their
// fields. Every /mutate reply carries applied, epoch, seq, added_ids,
// removed_ids, extended, reverified, invalidated and window_patched —
// gcserved's the encoding of the cache's core.MutationResult, the
// router's the fleet's: the epoch the fleet reached, the IDs of a
// backend that landed there and the counts summed over the backends —
// and the router's adds one backends row per backend with the same keys
// plus addr and error. The router's /stats fills gcserved's keys with
// the fleet's figures (dataset_epoch the fleet epoch, mutation_seq the
// highest backend's, shed the router's own front-door sheds) and adds
// fleet_epoch, backends and router. Its admin GET /topology lists the
// fleet; neither carries a router_mode field any more, since a router
// has one routing rule (see "Serving tier"). A client that still reads
// router_mode gets the empty string.
//
// # Serving tier
//
// For traffic beyond one daemon, cmd/gcrouter fronts N gcserved
// backends behind the identical wire API — clients cannot tell a router
// from a single gcserved:
//
//	gcserved -dataset aids.g -addr 127.0.0.1:7621 &
//	gcserved -dataset aids.g -addr 127.0.0.1:7622 &
//	gcrouter -backends 127.0.0.1:7621,127.0.0.1:7622
//	gcquery  -server 127.0.0.1:7631 -queries queries.g
//
// Routing has one rule, keyed by the query's isomorphism-invariant key
// (graph.IsoKey, the key the backends' exact lookup uses, so isomorphic
// queries always route together). The router recomputes it from the
// decoded query — O(|V|+|E|), no seed — rather than receiving it. Every
// query, single or batched, goes to its home: the backend the key falls
// on in a consistent-hash ring. Each backend's cache therefore sees its
// own share of the key space, and the fleet's aggregate capacity is N
// near-disjoint caches. A query whose home is unavailable, lagging the
// fleet's dataset epoch or at its queue bound goes to the least-loaded
// backend instead, so affinity never queues work behind a saturated or
// broken backend while others idle. A request is split by this rule
// into at most one /querybatch per backend, scatter-gathered and
// re-stitched in request order ("On Smart Query Routing": route for
// cache locality, divert only under load); a single query takes the same
// path as a group of one.
//
// Failover leans on the soundness of the pruning rules: any backend
// answers any query correctly (routing only concentrates cache hits),
// so a dispatch that hits a dead backend — transport failure or 5xx —
// re-dispatches the affected queries to a healthy one, and no single
// backend's death fails a request as long as one backend survives.
// Affinity rides a consistent-hash ring over the full backend list (see
// "Elastic fleet"), so a backend dropping out never remaps queries
// between the survivors. GET /stats
// aggregates fleet-wide totals with per-backend detail — breaker state
// and transition counters included — and the router's own counters
// (routed, retried, ejected, shed), and POST /mutate answers with the
// fleet's outcome and one row per backend; both embed gcserved's reply
// types, so each is a JSON superset of gcserved's payload (see "Router
// payloads"). GET /healthz stays green while at least one backend is
// dispatchable. In Go, NewRouter embeds the tier in any process; see
// cmd/gcrouter.
//
// # Load management
//
// The serving tier is engineered for sustained overload and partial
// failure, with four cooperating mechanisms. The router's three run on
// fixed constants (internal/router's probeInterval, dispatchSlots,
// errorBudget and their siblings); no RouterOptions field or gcrouter
// flag tunes them:
//
//   - Circuit breakers. Each backend has one, replacing eject-on-first-
//     failure: dispatch and probe outcomes (a probe every 500ms, each
//     bounded by 2s) feed a sliding 10s window, and the breaker opens
//     only when the failure fraction reaches the 0.5 error budget with
//     at least 5 observations — one unlucky request cannot eject a
//     healthy backend. An open breaker rejects dispatches for a 1s
//     cooldown, then half-opens: one dispatch at a time goes through as
//     a probe, and its outcome closes or re-opens the breaker.
//     Transitions are lazy (performed by the next dispatch, not a
//     timer), so a Handler-only embedding with no background prober
//     still readmits recovered backends; the prober, when running,
//     merely accelerates the cycle without spending client requests.
//     Breaker state and monotone transition counters (opens ≥ half_opens
//     ≥ closes) are published per backend in /stats, so a poller
//     observes every open → half-open → closed cycle even between
//     samples.
//
//   - Bounded queues with backpressure. Each backend admits at most 64
//     concurrent dispatches; excess dispatches wait up to 1s for a slot,
//     cancelled early if the request's own context dies. Routing prefers
//     less-loaded replicas when affinity and load conflict: a query
//     whose affinity home is saturated or broken diverts to the
//     least-loaded available backend instead of queueing behind the hot
//     spot.
//
//   - Overload shedding. When fleet-wide admitted work crosses twice
//     the fleet's dispatch slots (2 × 64 × backends, counted on the
//     topology each request loads, so the threshold tracks joins and
//     drains), /query and /querybatch answer 429 with a Retry-After
//     hint instead of queueing without bound — refusing fast keeps tail
//     latency bounded for the work that is admitted. gcserved has the same
//     back-stop (ServerOptions.ShedThreshold) for deployments without a
//     router. Request contexts propagate end-to-end — front door, queue,
//     backend dispatch, the backend's run — so a disconnecting client cancels
//     its queued and in-flight work instead of leaving it to burn
//     capacity.
//
//   - Client resilience. ServerClient (NewServerClientWith) bounds each
//     attempt with ClientOptions.RequestTimeout and retries failures
//     with jittered exponential backoff, honouring the server's
//     Retry-After hint. Retry eligibility follows idempotency: 429/503
//     refusals are always retryable (the work never started), while
//     transport errors and other 5xx replies — where the work may have
//     executed — are retried only for idempotent requests. Queries are
//     idempotent (pruning soundness makes answers depend only on the
//     query), so `gcquery -server -retries N` rides through chaos.
//
//   - Connections. ServerClient speaks HTTP/1.1 itself rather than
//     through net/http's Transport: each attempt is one exchange on the
//     caller's goroutine — the request head written by hand, the reply
//     parsed by http.ReadResponse, so a chunked reply (GET /snapshot)
//     reads like any other body — over a keep-alive connection from one
//     pool that every client in the process shares. The pool keeps up to 64 idle connections per
//     server (gcrouter's dispatch slots per backend), hands out the most
//     recently used first, skips one the server closed while it sat idle
//     (a non-blocking peek, on unix only), and closes any idle for 90 s.
//     A GET whose pooled connection fails before the reply's first byte
//     is sent once more on a new connection, as net/http's Transport does
//     (a health probe must not fail because the server closed the
//     connection as the probe went out); no other method is re-sent.
//     Without the peek (windows) a POST meets such a closed connection:
//     after a server restarts or drains, the next query on each of its
//     pooled connections fails, and a router counts that failure against
//     the backend's breaker. A connection is reused only after its reply
//     was read to the end; a cancelled, timed-out or abandoned reply
//     closes it, which is how a backend learns that its caller left. The
//     attempt deadline is the connection's, and a cancelled context moves
//     it into the past, so a blocked read returns at once. Only http://
//     servers are supported, and proxy environment variables (HTTP_PROXY,
//     NO_PROXY) are not consulted: a client dials the address it was
//     given. The warm-join snapshot download is bounded by its context
//     alone, not by a query's 5-minute attempt timeout.
//
// The fault-injection harness behind these guarantees is
// internal/faultproxy: an in-process chaos proxy injecting 503s,
// latency, severed connections or a blackhole between router and
// backend. TestChaosDrillZeroClientFailures drops half of one backend's
// traffic and asserts zero failed client requests and the breaker cycle
// in /stats; TestOverloadShedding and TestRouterMutateFansOut put it
// behind the shed threshold and the mutation fan-out.
//
// # Elastic fleet
//
// The fleet grows and shrinks at runtime without a restart and without
// cold caches:
//
//   - Consistent-hash affinity. Affinity maps every query's
//     isomorphism-invariant key (graph.IsoKey) onto a ring of virtual
//     nodes derived purely from backend identity, so adding a backend to
//     a fleet of N remaps only ~1/(N+1) of the key space (the old modulo
//     slot remapped nearly all of it) and removing one hands exactly its
//     share to the survivors. The key depends on the query alone, so the
//     assignment is deterministic across router restarts. Breaker-
//     open and draining backends stay on the ring: unavailability is a
//     routing-time divert to the least-loaded available backend, never a
//     remap, so a breaker cycle leaves the survivors' cached keys alone.
//
//   - Live topology. With RouterOptions.AdminAddr (gcrouter -admin-addr)
//     the router serves an admin API: POST /backends joins a backend,
//     DELETE /backends/{addr} drains one out, GET /topology shows the
//     fleet as routed right now. Joins are warm-then-serve and drains
//     are drain-then-remove, so neither direction fails a request.
//
//   - Snapshot shipping. A joiner is health-checked, then warmed from
//     the least-loaded healthy peer: the router calls the joiner's
//     POST /warm, which fetches the peer's GET /snapshot — the live
//     cache, streamed in the snapshot format, holding every window the
//     peer had filled — verifies its checksum trailer and swaps it in.
//     The swap takes the cache to itself, as a mutation does: queries
//     that arrive meanwhile wait for it instead of being refused. Only
//     after the snapshot is in and /healthz answers again does the joiner
//     enter the ring: its first dispatch ever hits a warmed cache.
//     gcserved -warm-from does the same at daemon startup.
//
//   - Crash-safe persistence. Every snapshot — shutdown, periodic
//     (ServerOptions.SnapshotInterval), and the /snapshot stream —
//     carries a checksum trailer, and files are written via fsync +
//     rename. A file that is truncated or corrupted anyway is detected
//     at load, quarantined to SnapshotPath+".corrupt" and logged, and
//     the daemon starts cold — a mangled snapshot costs cache warmth,
//     never availability. With SnapshotInterval set, a SIGKILL or power
//     loss costs at most one interval of learned cache entries.
//
// # Dynamic datasets
//
// The dataset is live: graphs can be added, removed and edge-edited
// while queries run, and the cache stays sound — every answer served
// after a mutation is byte-identical to what a cold cache over the
// mutated dataset would compute.
//
// A Dataset is a sequence of immutable generations behind an atomic
// pointer. Readers (queries in flight) hold whichever generation they
// loaded — lock-free, never torn; a mutation builds the next generation
// and publishes it with a single store, advancing the dataset epoch.
// IDs are append-only: additions take fresh IDs, removals leave
// tombstones, so an ID means the same graph forever.
//
// Cache.ApplyMutation applies one Mutation atomically with respect to
// queries (it takes the write lock of the mutation gate, a sync.RWMutex
// every query holds for reading, applies, then readmits) and repairs the cached answers in place instead of flushing
// them:
//
//   - Additions extend. Each added graph is tested (using the method's
//     own Verify) against each cached query whose feature vector its own
//     dominates, the only queries it can answer, and cached answers gain
//     the IDs that match. The cache's memoised candidate vectors grow the
//     same way, so pruning stays exact.
//
//   - Removals are exact. Every cached answer that holds a removed ID
//     drops it, and every other entry is untouched. No entry is
//     invalidated wholesale for a removal.
//
//   - Edits re-verify a bounded set. Each cached query whose feature
//     vector the replacement graph's dominates is re-verified against it,
//     and may gain or lose the ID: one sub-iso test per such entry, not a
//     cache flush. An entry that holds the ID but is no longer dominated
//     drops it without a test, since the feature filter has no false
//     negatives.
//
// The vectors of the graphs a mutation brings are extracted before the
// gate closes. The method's index is maintained through the DynamicMethod
// extension under the same gate, and GGSX's index costs what the mutation
// changes. Its postings are log-structured: main columns, a tombstone bit
// per ID whose main postings are dead, and a small delta of columns for
// the graphs indexed since the main ones were built; neither set of
// columns is edited once written. A graph whose postings are in the main
// columns leaves by setting its bit. Every other change writes a new delta
// in one linear pass (pathfeat.Columns.Renumber) that drops the postings
// of the graphs leaving the delta and merges in those of the added and
// edited graphs, so only the delta's postings move. When the delta's
// postings, or the tombstoned ones, pass a fixed share (1/8) of the main
// columns, one more such pass compacts the three into fresh main columns. Filtering intersects the main columns,
// masking tombstones, and the delta, and merges the two, so the index
// always answers as a fresh build over the current dataset does, and its
// dead and delta postings stay within that share of its size. A resync
// after a snapshot load skips every graph the index already holds (see
// ggsx.Index.ApplyDatasetMutation); Grapes, which is GGSX's columns plus
// per-graph occurrence locations, does the same to the columns, drops the
// locations of removed graphs and recomputes those of the graphs GGSX
// re-indexed (the locations bound the verify region, so staleness there
// could lose answers); CT-Index grows/zeroes its fingerprint slots;
// and the SI methods need no maintenance at all. ApplyMutation refuses a
// Method that does not implement DynamicMethod with ErrStaticMethod.
//
// Durability: gcserved -journal names a mutation write-ahead log. Each
// POST /mutate is appended and fsynced *before* it is acknowledged, so
// an acked mutation survives kill -9; on restart the journal replays on
// top of the snapshot (whose header binds the dataset fingerprint and
// epoch — a snapshot from a different dataset or epoch is quarantined
// to SnapshotPath+".mismatch", not silently loaded). The journal holds
// only what the last snapshot lacks: once a snapshot of every applied
// mutation is durable (its directory synced), the journal is truncated to
// zero in place, and a mutation whose append or apply fails takes its
// record back out before it is answered.
//
// Fleet propagation: gcrouter's POST /mutate assigns a monotone
// sequence number and fans the mutation to every backend — draining
// ones included — with retries; the seq makes replay idempotent
// end-to-end, so a duplicate ack is safe anywhere. Per-backend epochs
// ride on mutate replies, /stats and the X-GC-Epoch health-probe
// header; a backend behind the fleet epoch (a failed fan-out leg, a
// joiner racing a mutation) is diverted like an open breaker until it
// catches up — partial failure degrades capacity, never soundness.
// Joins land warm *and* current: the snapshot carries the peer's
// epoch, dataset delta and dedupe state, and topology publication is
// serialized against fan-outs.
//
// # Telemetry
//
// Every layer of the serving stack is instrumented; everything is
// dependency-free (internal/telemetry implements the counters, callback
// gauges, fixed-bucket histograms and the Prometheus text-exposition
// writer and parser itself). Each event is metered once, by its tier.
//
// Every query has one statistics record, its QueryStats, which travels
// with its Result. Besides the wire fields it carries, in fields that
// never leave the process (json:"-"), the GC stage split into feature
// extraction, lookup and probe (the exact-match lookup, confirmation
// included, is in the probe share) and confirmation sub-iso time, and the
// credit its cache hits earned. Its stage times are the query's shares
// of its run's stages, so a run's records sum to what it adds to Totals.
// gcserved folds each query's record into its metrics before the reply
// is written, so a scrape taken right after a reply already counts it; a
// run cut short by departed clients returns no records and counts in
// none of the per-query families. The fleet's figures are the sum over
// backends. A mutation's record is the
// MutationResult Cache.ApplyMutation returns, which gcserved folds on
// POST /mutate and on journal replay. The cache's Observer, installed
// with Cache.SetObserver, receives the one event no caller sees: a
// WindowObservation per Window Manager pass, which runs inside whichever
// run drains the window. A nil Observer (the default) costs one atomic
// load per pass. gcserved installs its metrics as the observer.
//
// gcserved serves GET /metrics in the Prometheus 0.0.4 text format:
//
//	graphcache_query_duration_seconds{stage=...}  histograms per engine stage
//	    (feature, probe, gcverify, filter_m, filter_gc, verify, total), observed
//	    for every answered query; filter_m and verify skip special-case hits.
//	    A batched query's GC stage and its feature/probe/gcverify parts are
//	    its even share of the batch's stage time; its verify is its share of
//	    the batch's verification time, in proportion to its candidate-set
//	    size — what Totals, the router and the client see too
//	graphcache_queries_total{path=single|batched}  batched: ran in a run of two
//	    or more queries (a /querybatch of one, as a router sends a single,
//	    counts as single)
//	graphcache_query_hits_total{kind=exact|empty|container|containee}
//	graphcache_candidates_total{stage=method|final}, graphcache_query_candidates
//	graphcache_verifications_saved_total, graphcache_credit_saved_total
//	graphcache_window_rebuild_seconds, graphcache_window_{admitted,evicted,rejected}_total
//	graphcache_server_batch_size  queries per run (1 for a /query, the batch
//	    for a /querybatch)
//	graphcache_server_codec_seconds{op=decode,codec=text|binary}  request decode
//	graphcache_server_codec_seconds{op=encode,codec=text}  reply encode
//	graphcache_server_wire_negotiated_total{codec,direction=request|response}
//	graphcache_codec_bytes_total{codec,direction=in|out}
//	    (requests: text|binary; replies: text; gcrouter has its own, below)
//	graphcache_server_shed_total, graphcache_server_warmups_total
//	graphcache_server_stream_cancelled_total  runs cut short because their
//	    clients went away; graphcache_server_stream_abandoned_verifications_total
//	    the sub-iso tests those runs skipped
//	graphcache_server_admitted_queries, graphcache_cached_queries  (gauges)
//	graphcache_mutations_applied_total{op=add|remove|edit}, journal replay included
//	graphcache_mutation_seconds  from the new graphs' feature extraction, through
//	    the wait for in-flight queries, to the end of the answer repair
//	graphcache_mutation_entries_{extended,reverified,invalidated}_total
//	graphcache_dataset_epoch  (gauge)
//
// gcrouter serves the fleet view on both its query and admin listeners:
//
//	graphcache_router_dispatch_seconds{backend=addr}  per-backend histograms
//	graphcache_router_{routed,retried,shed}_total
//	graphcache_router_codec_seconds, graphcache_router_wire_negotiated_total  (as gcserved's)
//	graphcache_codec_bytes_total{codec,direction=in|out}  the router's own bytes
//	graphcache_router_breaker_transitions_total{state=open|half_open|closed}
//	graphcache_router_ring_remaps_total{op=join|drain}
//	graphcache_router_backend_queue_depth{backend=addr}  (gauge)
//	graphcache_router_{admitted_queries,backends,backends_available}  (gauges)
//	graphcache_router_mutations_total, graphcache_router_mutations_failed_total
//	graphcache_router_fleet_epoch, graphcache_router_backend_dataset_epoch{backend=addr}  (gauges)
//
// Request tracing: the fleet's front door (router or a lone gcserved)
// mints an X-GC-Request-Id per request, echoes it on the response and
// forwards it on every dispatch, so backend spans carry the id minted
// at the edge. ?debug=trace on POST /query or POST /querybatch, at
// either tier, returns every result with a trace: the request id plus
// named spans from every hop (router:decode — the router's split and key
// of a binary request, or its parse and transcode of a text one —
// router:dispatch addr, naming the backend that answered the result,
// server:decode, engine:filter_m, engine:filter_gc, and the GC stage's
// parts engine:feature, engine:probe and engine:gcverify, then
// engine:verify, engine:total). The decode spans time the whole request,
// which a batch's results share; router:dispatch times the dispatch of
// the result's group, failover included.
//
// Logs are structured (log/slog): -log-json switches the daemons to
// one-line JSON, and every record carries a component attribute; a
// query's own timings are in its ?debug=trace reply and, fleet-wide, in
// /metrics. gcserved -pprof and the router's admin listener expose
// net/http/pprof under /debug/pprof/. GET /stats on both daemons
// reports uptime_seconds, go_version and build (main module version +
// VCS revision) for fleet inventory; the router's /topology adds
// per-backend breaker state age.
//
// # Package layout
//
// This root package is the public API: the labelled-graph model, dataset
// construction and synthetic generators, the six bundled query-processing
// methods, workload generators, and the Cache itself. The implementation
// lives in internal packages (internal/core is the cache, internal/iso the
// matchers, internal/ggsx, internal/grapes and internal/ctindex the FTV
// methods, internal/server the network serving subsystem, internal/router
// the affinity-routed serving tier); the experiment harness reproducing
// the paper's evaluation is internal/bench, driven by cmd/gcbench and the
// repository-root benchmarks.
//
// # Quick start
//
//	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.05, 1), 42)
//	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})
//	gc := graphcache.New(m, graphcache.Options{CacheSize: 100, WindowSize: 20})
//	res := gc.Query(q) // res.Answer holds the IDs of graphs containing q
//
// Query may be called from any number of goroutines sharing one Cache.
//
// See examples/quickstart for a complete program.
package graphcache
