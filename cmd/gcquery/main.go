// Command gcquery answers graph queries from the command line: it loads a
// dataset, builds a query-processing method, optionally wraps it in
// GraphCache, and prints the answers and a performance summary.
//
//	gcquery -dataset aids.g -queries queries.g -method ggsx
//	gcquery -dataset aids.g -queries queries.g -method vf2plus -cache \
//	        -cache-size 100 -window 20 -policy hd -admission 0.25
//	gcquery -server 127.0.0.1:7621 -queries queries.g
//
// With -compare, each workload runs twice — bare method, then method
// behind GraphCache — and the tool reports the speedup, reproducing the
// paper's measurement loop on your own data.
//
// With -server ADDR, no local dataset or cache is built: the queries are
// sent to a running gcserved at ADDR and answered from its cache.
// -wire binary sends the queries as compact binary frames instead of
// JSON (answers are identical), and -batch N sends them N at a time
// through /querybatch, each batch answered by one JSON reply:
//
//	gcquery -server ADDR -queries queries.g -wire binary
//	gcquery -server ADDR -queries queries.g -batch 32
//
// With -server and -mutate-op, the tool submits a live dataset mutation
// instead of queries — to one gcserved, or to a gcrouter which fans it
// to every backend:
//
//	gcquery -server ADDR -mutate-op add -mutate-file new.g
//	gcquery -server ADDR -mutate-op remove -mutate-ids 3,17
//	gcquery -server ADDR -mutate-op edit -mutate-ids 3 -mutate-file replacement.g
//
// Add -mutate-seq N to replay a known fleet sequence number
// idempotently (an already-applied seq acks without re-applying). The
// reply's dataset epoch, consumed seq and cache-maintenance counts are
// printed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"graphcache"
	"graphcache/internal/method"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gcquery: ")

	var (
		dsFile    = flag.String("dataset", "", "dataset file (required)")
		qFile     = flag.String("queries", "", "query workload file (required)")
		methodNm  = flag.String("method", "ggsx", "method: ggsx, grapes1, grapes6, ctindex, vf2, vf2plus, graphql")
		useCache  = flag.Bool("cache", false, "wrap the method in GraphCache")
		compare   = flag.Bool("compare", false, "run both bare and cached, report speedups")
		cacheSize = flag.Int("cache-size", 100, "cache capacity C in queries")
		window    = flag.Int("window", 20, "window size W in queries")
		policy    = flag.String("policy", "hd", "replacement policy: lru, pop, pin, pinc, hd")
		admission = flag.Float64("admission", 0, "admission-control fraction (0 disables)")
		quiet     = flag.Bool("quiet", false, "suppress per-query answer lines")
		loadCache = flag.String("load-cache", "", "restore cache contents from a snapshot file before querying")
		saveCache = flag.String("save-cache", "", "write cache contents to a snapshot file after querying")
		serverAd  = flag.String("server", "", "send queries to a running gcserved at this address instead of building a local cache")
		batchSize = flag.Int("batch", 0, "with -server: send queries in batches of this size (0 = one at a time)")
		retries   = flag.Int("retries", 2, "with -server: max retries per request on refusals and transport errors")
		timeout   = flag.Duration("timeout", 0, "with -server: per-attempt request timeout (0 = client default)")
		wire      = flag.String("wire", "text", "with -server: wire format for queries (text or binary); answers are identical")
		mutOp     = flag.String("mutate-op", "", "with -server: submit a dataset mutation instead of queries (add, remove, edit)")
		mutIDs    = flag.String("mutate-ids", "", "with -mutate-op remove/edit: comma-separated dataset graph IDs")
		mutFile   = flag.String("mutate-file", "", "with -mutate-op add/edit: graphs in t/v/e format to add, or the edit's replacement graph")
		mutSeq    = flag.Int64("mutate-seq", 0, "with -mutate-op: sequence number for idempotent replay (0 = assign)")
	)
	flag.Parse()

	if *wire != "text" && *wire != "binary" {
		log.Fatalf("unknown -wire %q (want text or binary)", *wire)
	}
	if *serverAd != "" {
		if *mutOp != "" {
			runMutate(*serverAd, *mutOp, *mutIDs, *mutFile, *mutSeq, *retries, *timeout)
			return
		}
		if *qFile == "" {
			flag.Usage()
			os.Exit(2)
		}
		sopts := serveOpts{
			batchSize: *batchSize, retries: *retries, timeout: *timeout,
			quiet: *quiet, binary: *wire == "binary",
		}
		runServer(*serverAd, *qFile, sopts)
		return
	}

	if *dsFile == "" || *qFile == "" {
		flag.Usage()
		os.Exit(2)
	}

	ds := loadDataset(*dsFile)
	queries := loadGraphs(*qFile)
	log.Printf("dataset: %d graphs; workload: %d queries", ds.Len(), len(queries))

	pol, err := graphcache.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	opts := graphcache.Options{
		CacheSize:         *cacheSize,
		WindowSize:        *window,
		Policy:            pol,
		AdmissionFraction: *admission,
	}

	m := buildMethod(*methodNm, ds)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if *compare {
		runCompare(out, m, opts, queries)
		return
	}

	if *useCache {
		gc := graphcache.New(m, opts)
		if *loadCache != "" {
			f, err := os.Open(*loadCache)
			if err != nil {
				log.Fatal(err)
			}
			err = gc.ReadSnapshot(bufio.NewReader(f))
			mustCloseFile(f)
			if err != nil {
				log.Fatalf("loading cache snapshot: %v", err)
			}
			log.Printf("restored %d cached queries from %s", len(gc.CachedSerials()), *loadCache)
		}
		start := time.Now()
		for i, q := range queries {
			res := gc.Query(q)
			if !*quiet {
				fmt.Fprintf(out, "q%d: %d answers %v\n", i, len(res.Answer), res.Answer)
			}
		}
		elapsed := time.Since(start)
		tot := gc.Totals()
		fmt.Fprintf(out, "\n%d queries in %v (%.2f ms/query)\n",
			tot.Queries, elapsed.Round(time.Millisecond), msPer(elapsed, len(queries)))
		fmt.Fprintf(out, "sub-iso tests: %d; exact hits: %d; empty shortcuts: %d; container hits: %d; containee hits: %d\n",
			tot.SubIsoTests, tot.ExactHits, tot.EmptyShortcuts, tot.ContainerHits, tot.ContaineeHits)
		fmt.Fprintf(out, "maintenance time (window passes, part of the time above): %v\n", tot.MaintenanceTime.Round(time.Microsecond))
		if *saveCache != "" {
			gc.Flush()
			f, err := os.Create(*saveCache)
			if err != nil {
				log.Fatal(err)
			}
			err = gc.WriteSnapshot(f)
			mustCloseFile(f)
			if err != nil {
				log.Fatalf("saving cache snapshot: %v", err)
			}
			log.Printf("saved %d cached queries to %s", len(gc.CachedSerials()), *saveCache)
		}
		return
	}

	elapsed, tests := runBare(m, queries, func(i int, ans []int32) {
		if !*quiet {
			fmt.Fprintf(out, "q%d: %d answers %v\n", i, len(ans), ans)
		}
	})
	fmt.Fprintf(out, "\n%d queries in %v (%.2f ms/query), %d sub-iso tests\n",
		len(queries), elapsed.Round(time.Millisecond), msPer(elapsed, len(queries)), tests)
}

// serveOpts collects the -server query mode's knobs: batching, retry
// policy and the negotiated wire format.
type serveOpts struct {
	batchSize int
	retries   int
	timeout   time.Duration
	quiet     bool
	binary    bool
}

// runServer is the -server mode: send the workload to a running gcserved
// (or gcrouter) and report its serving statistics — no local dataset,
// method or cache is built. Refused requests (429/503 from an overloaded
// or breaker-guarded serving tier) and transport errors are retried with
// backoff up to -retries times.
func runServer(addr, qFile string, so serveOpts) {
	queries := loadGraphs(qFile)
	cl := graphcache.NewServerClientWith(addr, graphcache.ServerClientOptions{
		MaxRetries:     so.retries,
		RequestTimeout: so.timeout,
		WireBinary:     so.binary,
	})
	ctx := context.Background()
	if err := cl.Healthz(ctx); err != nil {
		log.Fatalf("server %s not healthy: %v", addr, err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	start := time.Now()
	if so.batchSize > 1 {
		for i := 0; i < len(queries); i += so.batchSize {
			end := i + so.batchSize
			if end > len(queries) {
				end = len(queries)
			}
			results, err := cl.QueryBatch(ctx, queries[i:end])
			if err != nil {
				log.Fatalf("batch starting at query %d: %v", i, err)
			}
			if !so.quiet {
				for k, res := range results {
					fmt.Fprintf(out, "q%d: %d answers %v\n", i+k, len(res.Answer), res.Answer)
				}
			}
		}
	} else {
		for i, q := range queries {
			res, err := cl.Query(ctx, q)
			if err != nil {
				log.Fatalf("query %d: %v", i, err)
			}
			if !so.quiet {
				fmt.Fprintf(out, "q%d: %d answers %v\n", i, len(res.Answer), res.Answer)
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "\n%d queries served by %s in %v (%.2f ms/query)\n",
		len(queries), addr, elapsed.Round(time.Millisecond), msPer(elapsed, len(queries)))
	if st, err := cl.Stats(ctx); err == nil {
		fmt.Fprintf(out, "server lifetime: %d queries, %d batches, %d cached, %d sub-iso tests, %d exact hits, %d empty shortcuts\n",
			st.Totals.Queries, st.Totals.Batches, st.Cached, st.Totals.SubIsoTests, st.Totals.ExactHits, st.Totals.EmptyShortcuts)
	}
}

// runMutate is the -mutate-op mode: submit one live dataset mutation to
// a gcserved (or a gcrouter, which fans it fleet-wide) and report the
// epoch it landed at. Retries are safe once a seq is assigned — an
// already-applied seq acks without re-applying.
func runMutate(addr, op, idsCSV, file string, seq int64, retries int, timeout time.Duration) {
	if _, ok := graphcache.ParseMutationOp(op); !ok {
		log.Fatalf("unknown -mutate-op %q (want add, remove or edit)", op)
	}
	req := graphcache.ServerMutateRequest{Op: op, Seq: seq}
	if idsCSV != "" {
		for _, part := range strings.Split(idsCSV, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				log.Fatalf("bad -mutate-ids entry %q: %v", part, err)
			}
			req.IDs = append(req.IDs, int32(id))
		}
	}
	if file != "" {
		// Parse locally first so a malformed file fails here with a line
		// number, not server-side with a generic 400.
		gs := loadGraphs(file)
		var text strings.Builder
		if err := graphcache.WriteGraphs(&text, gs); err != nil {
			log.Fatal(err)
		}
		req.Graphs = text.String()
	}

	cl := graphcache.NewServerClientWith(addr, graphcache.ServerClientOptions{
		MaxRetries:     retries,
		RequestTimeout: timeout,
	})
	resp, err := cl.Mutate(context.Background(), req)
	if err != nil {
		log.Fatalf("mutate: %v", err)
	}
	if !resp.Applied {
		fmt.Printf("seq %d already applied; dataset at epoch %d\n", resp.Seq, resp.Epoch)
		return
	}
	fmt.Printf("%s applied: epoch %d, seq %d\n", op, resp.Epoch, resp.Seq)
	if len(resp.AddedIDs) > 0 {
		fmt.Printf("added ids: %v\n", resp.AddedIDs)
	}
	if len(resp.RemovedIDs) > 0 {
		fmt.Printf("removed ids: %v\n", resp.RemovedIDs)
	}
	fmt.Printf("cache maintenance: %d extended, %d reverified, %d invalidated, %d window-patched\n",
		resp.Extended, resp.Reverified, resp.Invalidated, resp.WindowPatched)
}

// runBare answers every query with Method M alone and returns the time
// taken and the sub-iso tests run. Each query is filtered once and its
// live candidates verified — graphcache.Answer's path, so the answers
// are its answers — and every candidate verified counts as one test.
// each, called inside the timed loop, receives every answer.
func runBare(m graphcache.Method, queries []*graphcache.Graph, each func(i int, ans []int32)) (time.Duration, int) {
	start := time.Now()
	tests := 0
	for i, q := range queries {
		cs := m.Dataset().FilterLive(m.Filter(q))
		tests += len(cs)
		var ans []int32
		for k, ok := range method.VerifyAll(m, q, cs) {
			if ok {
				ans = append(ans, cs[k])
			}
		}
		each(i, ans)
	}
	return time.Since(start), tests
}

func runCompare(out *bufio.Writer, m graphcache.Method, opts graphcache.Options, queries []*graphcache.Graph) {
	baseTime, baseTests := runBare(m, queries, func(int, []int32) {})

	// Behind GraphCache.
	gc := graphcache.New(m, opts)
	startGC := time.Now()
	for _, q := range queries {
		gc.Query(q)
	}
	gcTime := time.Since(startGC)
	tot := gc.Totals()

	fmt.Fprintf(out, "baseline: %v (%.2f ms/query), %d sub-iso tests\n",
		baseTime.Round(time.Millisecond), msPer(baseTime, len(queries)), baseTests)
	fmt.Fprintf(out, "graphcache: %v (%.2f ms/query), %d sub-iso tests\n",
		gcTime.Round(time.Millisecond), msPer(gcTime, len(queries)), tot.SubIsoTests)
	if gcTime > 0 && tot.SubIsoTests > 0 {
		fmt.Fprintf(out, "speedup: %.2fx time, %.2fx sub-iso tests\n",
			float64(baseTime)/float64(gcTime), float64(baseTests)/float64(tot.SubIsoTests))
	}
	fmt.Fprintf(out, "hits: %d exact, %d empty-shortcut, %d container, %d containee\n",
		tot.ExactHits, tot.EmptyShortcuts, tot.ContainerHits, tot.ContaineeHits)
	fmt.Fprintf(out, "gc stage breakdown: filterM %v, filterGC %v (%d query-vs-query tests), verify %v\n",
		tot.FilterMTime.Round(time.Millisecond), tot.FilterGCTime.Round(time.Millisecond),
		tot.GCVerifications, tot.VerifyTime.Round(time.Millisecond))
}

func buildMethod(name string, ds *graphcache.Dataset) graphcache.Method {
	m, err := graphcache.NewMethodByName(name, ds)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func loadDataset(path string) *graphcache.Dataset {
	return graphcache.NewDataset(loadGraphs(path))
}

func loadGraphs(path string) []*graphcache.Graph {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	gs, err := graphcache.ParseGraphs(bufio.NewReader(f))
	if err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	return gs
}

func mustCloseFile(f *os.File) {
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Milliseconds()) / float64(n)
}
