package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"graphcache"
	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

// libTarget is the lib lane: operations go straight into a Cache, no
// wire. It also tallies the engine's per-query statistics, which only
// this lane — one caller, synchronous rebuilds — repeats exactly.
type libTarget struct {
	cache *graphcache.Cache
	cur   *atomic.Int32 // the operation in flight, for the timing decorator
	n     engineCounts
}

// engineCounts are sums over a lane's queries and mutations.
type engineCounts struct {
	queries, exact, empty, container, containee int64
	subiso, gcVerifs, candM, candFinal          int64
	extended, reverified, invalidated           int
}

func (t *libTarget) query(_ context.Context, qs []*graphcache.Graph) ([]reply, error) {
	defer t.cur.Add(1)
	var rs []graphcache.Result
	if len(qs) == 1 {
		rs = []graphcache.Result{t.cache.Query(qs[0])}
	} else {
		rs = t.cache.QueryBatch(qs)
	}
	out := make([]reply, len(rs))
	for i, r := range rs {
		out[i] = reply{r.Answer, r.Stats}
		t.n.queries++
		t.n.subiso += int64(r.Stats.SubIsoTests)
		t.n.gcVerifs += int64(r.Stats.GCVerifications)
		t.n.candM += int64(r.Stats.CandidatesM)
		t.n.candFinal += int64(r.Stats.CandidatesFinal)
		t.n.exact += b2i(r.Stats.ExactHit)
		t.n.empty += b2i(r.Stats.EmptyShortcut)
		t.n.container += b2i(r.Stats.Containers > 0)
		t.n.containee += b2i(r.Stats.Containees > 0)
	}
	return out, nil
}

func (t *libTarget) mutate(_ context.Context, req *graphcache.ServerMutateRequest) error {
	defer t.cur.Add(1)
	mut, err := decodeMutation(req)
	if err != nil {
		return err
	}
	res, err := t.cache.ApplyMutation(mut)
	t.n.extended += res.Extended
	t.n.reverified += res.Reverified
	t.n.invalidated += res.Invalidated
	return err
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// bareTarget is Method M alone: what every query costs with no cache.
type bareTarget struct{ b bare }

func (t bareTarget) query(_ context.Context, qs []*graphcache.Graph) ([]reply, error) {
	out := make([]reply, len(qs))
	for i, q := range qs {
		answer, tests := t.b.answer(q)
		out[i] = reply{answer, graphcache.QueryStats{SubIsoTests: tests}}
	}
	return out, nil
}

func (t bareTarget) mutate(_ context.Context, req *graphcache.ServerMutateRequest) error {
	return t.b.apply(req)
}

// lane is one pass of the traced operations through one vantage point,
// by a single caller.
type lane struct {
	name string
	outs []outcome
	sum  summary
}

// runLane sends ops[0:k) to tgt one at a time and records a span per
// operation.
func runLane(ctx context.Context, rec *recorder, name string, in *inputs, k int, tgt target) (lane, error) {
	d := &driver{ops: in.ops, tgt: tgt, callers: 1}
	ln := lane{name: name, outs: d.closed(ctx, 0, k, time.Time{})}
	ln.sum = summarise(in.ops[:k], ln.outs)
	if ln.sum.failed > 0 {
		return ln, fmt.Errorf("%s lane: %d operations failed", name, ln.sum.failed)
	}
	opSpan, mutSpan := spanQuery, spanMutation
	if _, wire := tgt.(fleetTarget); wire {
		opSpan, mutSpan = spanRequest, spanMutate
	}
	addSpans(rec, name, opSpan, mutSpan, in.ops, 0, ln.outs)
	return ln, nil
}

func addSpans(rec *recorder, lane, opSpan, mutSpan string, ops []op, from int, outs []outcome) {
	l, q, m := rec.lane(lane), rec.name(opSpan), rec.name(mutSpan)
	for k, o := range outs {
		if !o.done {
			continue
		}
		name := q
		if ops[from+k].mutate != nil {
			name = m
		}
		rec.add(l, name, int32(from+k), o.start, o.start.Add(o.latency-o.lag))
	}
}

// p50 is the lane's median latency per query request, in ms.
func (ln lane) p50() float64 { return median(ln.sum.latMS) }

// tests is the sub-iso tests the lane's vantage point reported per query.
func (ln lane) tests() (total, queries int64) {
	for _, o := range ln.outs {
		total += o.subiso
		queries += int64(len(o.digests))
	}
	return total, queries
}

// runTraced is a --trace 1 run. The first k operations of the workload
// go, one caller at a time and from fresh state each time, through four
// lanes: bare Method M, the lib lane (a default-Options Cache, once
// under the timing decorator and once plain), direct (client → one
// gcserved) and routed (client → gcrouter → 2 gcserved). The next
// operations then run against the routed lane's fleet under the
// workload's own load generator, for the counters that only mean
// something under concurrency. Every per-layer metric is a difference
// or ratio of what these vantage points saw from outside.
func runTraced(sp spec, seed int64, pl plan, traceOut string) (result, error) {
	ctx := context.Background()
	k, kLoad := pl.laneOps, pl.loadOps
	in, err := buildInputs(sp, seed, 0, k+kLoad)
	if err != nil {
		return result{}, err
	}
	var laneQueries []*graphcache.Graph
	capacity := 0
	for _, o := range in.ops[:k] {
		for _, q := range o.queries {
			laneQueries = append(laneQueries, q)
			capacity += len(in.m.Filter(q)) + 1
		}
	}
	// Every lane's operation spans, the decorated lane's call spans (at
	// most one Verify per bare candidate, plus slack for answer repair
	// after mutations), and the load phase.
	rec := newRecorder(capacity*5/4 + 8*(k+kLoad))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("gen.generate_s", in.genDatasetS, "s")
	put("method.index_build_s", in.genIndexS, "s")
	put("workload.generate_s", in.genWorkloadS, "s")

	// ---- bare Method M --------------------------------------------------
	b, err := newBare(in, sp.method)
	if err != nil {
		return result{}, err
	}
	bareLane, err := runLane(ctx, rec, "bare", in, k, bareTarget{b})
	if err != nil {
		return result{}, err
	}

	// ---- lib lane, decorated then plain ---------------------------------
	runLib := func(name string, decorated bool) (lane, *libTarget, error) {
		mm, err := in.newMethod()
		if err != nil {
			return lane{}, nil, err
		}
		tgt := &libTarget{cur: new(atomic.Int32)}
		if decorated {
			mm = decorate(mm, rec, name, tgt.cur)
		}
		tgt.cache = graphcache.New(mm, graphcache.Options{})
		ln, err := runLane(ctx, rec, name, in, k, tgt)
		return ln, tgt, err
	}
	libLane, libT, err := runLib("lib", true)
	if err != nil {
		return result{}, err
	}
	plainLane, plainT, err := runLib("lib-plain", false)
	if err != nil {
		return result{}, err
	}
	if libT.n != plainT.n {
		return result{}, fmt.Errorf("decorated and plain lib lanes disagree on counts: %+v vs %+v", libT.n, plainT.n)
	}
	n := plainT.n
	nq := float64(n.queries)
	perReq := float64(sp.batch)

	libMS, plainMS := sum(libLane.sum.latMS), sum(plainLane.sum.latMS)
	put("trace.overhead_share", (libMS-plainMS)/plainMS, "ratio")
	put("core.query_p50_us", plainLane.p50()*1000/perReq, "us")
	put("core.query_mean_us", plainMS*1000/nq, "us")
	cov := coverage(rec, "lib", in.ops[:k], libLane.outs)
	put("core.self_mean_us", us(cov.self)/nq, "us")
	put("method.filter_mean_us", us(cov.filter)/nq, "us")
	put("method.verify_mean_us", us(cov.verifyOnly)/nq, "us")
	put("method.verify_calls_per_query", float64(cov.verifyCalls)/nq, "count")
	put("method.verify_us_per_call", ratio(us(cov.verifyBusy), float64(cov.verifyCalls)), "us")

	put("core.exact_hit_share", float64(n.exact)/nq, "ratio")
	put("core.empty_shortcut_share", float64(n.empty)/nq, "ratio")
	put("core.container_hit_share", float64(n.container)/nq, "ratio")
	put("core.containee_hit_share", float64(n.containee)/nq, "ratio")
	put("core.subiso_tests_per_query", float64(n.subiso)/nq, "count")
	put("core.gc_verifications_per_query", float64(n.gcVerifs)/nq, "count")
	put("core.candidates_pruned_share", 1-ratio(float64(n.candFinal), float64(n.candM)), "ratio")
	bareTests, _ := bareLane.tests()
	bareMS := sum(bareLane.sum.latMS)
	put("method.bare_query_mean_us", bareMS*1000/nq, "us")
	put("core.time_speedup", bareMS/plainMS, "ratio")
	put("core.subiso_speedup", ratio(float64(bareTests), float64(n.subiso)), "ratio")

	tot := plainT.cache.Totals()
	put("core.maintenance_ms_per_window", ratio(ms(tot.MaintenanceTime), float64(tot.WindowsProcessed)), "ms")
	put("core.admitted", float64(tot.Admitted), "count")
	put("core.evicted", float64(tot.Evicted), "count")
	put("core.mutation_apply_mean_ms", mean(plainLane.sum.mutMS), "ms")
	put("core.entries_extended", float64(n.extended), "count")
	put("core.entries_reverified", float64(n.reverified), "count")
	put("core.entries_invalidated", float64(n.invalidated), "count")

	// Snapshot the plain lane's cache and load it into a fresh one.
	var snap bytes.Buffer
	t := time.Now()
	if err := plainT.cache.WriteSnapshot(&snap); err != nil {
		return result{}, err
	}
	put("core.snapshot_write_ms", ms(time.Since(t)), "ms")
	put("core.snapshot_bytes", float64(snap.Len()), "bytes")
	fresh, err := in.newMethod()
	if err != nil {
		return result{}, err
	}
	t = time.Now()
	if err := graphcache.New(fresh, graphcache.Options{}).ReadSnapshot(&snap); err != nil {
		return result{}, err
	}
	put("core.snapshot_read_ms", ms(time.Since(t)), "ms")

	// ---- codecs and feature extraction, called directly -----------------
	if err := codecMetrics(in.ops[:k], laneQueries, put); err != nil {
		return result{}, err
	}

	// ---- direct and routed lanes ----------------------------------------
	var tmpDir string
	if sp.mutateEvery > 0 {
		if tmpDir, err = os.MkdirTemp(".", ".fleetbench-tmp-"); err != nil {
			return result{}, err
		}
		defer os.RemoveAll(tmpDir)
	}
	laneFleet := func(name string, size int, routed bool) (*fleet, error) {
		dir := ""
		if tmpDir != "" {
			var err error
			if dir, err = os.MkdirTemp(tmpDir, name); err != nil {
				return nil, err
			}
		}
		return startFleet(in.newMethod, size, routed, dir)
	}
	direct, err := laneFleet("direct", 1, false)
	if err != nil {
		return result{}, err
	}
	directLane, err := runLane(ctx, rec, "direct", in, k, newFleetTarget(direct.addr(), sp.binary))
	if stopErr := direct.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return result{}, err
	}

	t = time.Now()
	routed, err := laneFleet("routed", backends, true)
	if err != nil {
		return result{}, err
	}
	defer routed.stop()
	put("server.start_s", time.Since(t).Seconds(), "s")
	routedLane, err := runLane(ctx, rec, "routed", in, k, newFleetTarget(routed.addr(), sp.binary))
	if err != nil {
		return result{}, err
	}

	// The load phase: the workload's own generator on the fleet the
	// routed lane has just warmed, whose history the lane's mutations are.
	before, err := routed.stats(ctx)
	if err != nil {
		return result{}, err
	}
	d := &driver{ops: in.ops, tgt: newFleetTarget(routed.addr(), sp.binary), callers: clients()}
	d.issued.Store(int32(len(routedLane.sum.mutMS)))
	d.acked.Store(int32(len(routedLane.sum.mutMS)))
	loadOuts := d.offer(ctx, in, k, k+kLoad, pl.length, time.Time{})
	after, err := routed.stats(ctx)
	if err != nil {
		return result{}, err
	}
	if err := routed.stop(); err != nil {
		return result{}, err
	}
	addSpans(rec, "load", spanRequest, spanMutate, in.ops, k, loadOuts)

	// Same operations, same order, one caller: every lane must have seen
	// the same answers. The oracle then only has to judge one of them.
	for i := range routedLane.outs {
		for _, other := range []lane{bareLane, libLane, plainLane, directLane} {
			if !slices.Equal(routedLane.outs[i].digests, other.outs[i].digests) {
				return result{}, fmt.Errorf("operation %d: the %s lane's answer differs from the routed lane's", i, other.name)
			}
		}
	}
	t = time.Now()
	or, err := newOracle(in)
	if err != nil {
		return result{}, err
	}
	all := append(routedLane.outs, loadOuts...)
	jd, err := or.judge(in.ops, all, 0, len(all))
	if err != nil {
		return result{}, err
	}
	put("client.oracle_s", time.Since(t).Seconds(), "s")
	whole := summarise(in.ops, all)
	load := summarise(in.ops[k:], all[k:])
	put("client.requests", float64(load.attempted), "count")
	put("client.failed", float64(load.failed), "count")
	put("client.wrong_answers", float64(jd.wrong), "count")
	put("client.latency_p50_ms", median(load.latMS), "ms")
	put("client.latency_p95_ms", percentile(sortedCopy(load.latMS), 0.95), "ms")
	put("client.latency_p99_ms", tailPercentile(load.latMS, 0.99).value, "ms")
	put("client.sched_lag_p99_ms", percentile(sortedCopy(load.lagMS), 0.99), "ms")

	put("client.routed_p50_ms", routedLane.p50(), "ms")
	put("router.hop_p50_ms", routedLane.p50()-directLane.p50(), "ms")
	put("server.hop_p50_ms", directLane.p50()-plainLane.p50(), "ms")
	put("router.mutate_p50_ms", median(routedLane.sum.mutMS), "ms")
	put("server.mutate_p50_ms", median(directLane.sum.mutMS), "ms")
	rTests, rq := routedLane.tests()
	dTests, dq := directLane.tests()
	put("router.hit_dilution", ratio(float64(rTests)/float64(rq), float64(dTests)/float64(dq)), "ratio")

	put("router.routed", float64(after.router.Routed-before.router.Routed), "count")
	put("router.retried", float64(after.router.Retried-before.router.Retried), "count")
	put("router.shed", float64(after.router.Shed-before.router.Shed), "count")
	var perBackend []float64
	batches, shed := int64(0), int64(0)
	for i := range after.backends {
		a, b := after.backends[i], before.backends[i]
		perBackend = append(perBackend, float64(a.Totals.Queries-b.Totals.Queries))
		batches += a.Totals.Batches - b.Totals.Batches
		shed += a.Shed - b.Shed
	}
	sort.Float64s(perBackend)
	put("router.backend_imbalance", ratio(perBackend[len(perBackend)-1], mean(perBackend)), "ratio")
	put("server.multi_query_batches", float64(batches), "count")
	put("server.shed", float64(shed), "count")

	fmt.Printf("  lanes of %d operations, load phase of %d; per request, ms:\n", k, kLoad)
	fmt.Printf("    routed p50 %.3f = router.hop %.3f + server.hop %.3f + core.query p50 %.3f\n",
		routedLane.p50(), m["router.hop_p50_ms"].Value, m["server.hop_p50_ms"].Value, plainLane.p50())
	fmt.Printf("    core.query mean %.3f (decorated) = core.self %.3f + method.filter %.3f + method.verify %.3f\n",
		libMS/float64(len(libLane.sum.latMS)), perReq*m["core.self_mean_us"].Value/1000,
		perReq*m["method.filter_mean_us"].Value/1000, perReq*m["method.verify_mean_us"].Value/1000)

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return result{}, err
		}
		if err := rec.write(f); err != nil {
			f.Close()
			return result{}, err
		}
		if err := f.Close(); err != nil {
			return result{}, err
		}
	}
	return result{Correct: jd.wrong == 0, Attempted: whole.attempted, Failed: whole.failed, Metrics: m}, nil
}

// ratio is a ÷ b, or 0 when there is nothing to divide by (a workload
// without mutations has no mutation latency).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// covered is where the decorated lib lane's query time went.
type covered struct {
	self        time.Duration // core.query time no Method M call covers
	filter      time.Duration // time method.filter spans cover
	verifyOnly  time.Duration // time only method.verify spans cover
	verifyBusy  time.Duration // Σ method.verify span durations (they overlap across workers)
	verifyCalls int
}

// coverage splits every core.query span of a lane into the part its
// method.* children cover and the rest — the engine's self time. Verify
// calls of one query run on several workers at once, so "covered" is the
// union of the children's intervals, not their sum.
func coverage(rec *recorder, laneName string, ops []op, outs []outcome) covered {
	type iv struct{ s, e int64 }
	ln, fName, vName := rec.lane(laneName), rec.name(spanFilter), rec.name(spanVerify)
	filters, verifies := make([][]iv, len(outs)), make([][]iv, len(outs))
	var c covered
	for _, s := range rec.spans {
		if s.lane != ln || int(s.id) >= len(outs) || ops[s.id].mutate != nil {
			continue
		}
		switch s.name {
		case fName:
			filters[s.id] = append(filters[s.id], iv{s.start, s.end})
		case vName:
			verifies[s.id] = append(verifies[s.id], iv{s.start, s.end})
			c.verifyBusy += time.Duration(s.end - s.start)
			c.verifyCalls++
		}
	}
	union := func(ivs []iv) time.Duration {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		total, end := int64(0), int64(-1<<62)
		for _, v := range ivs {
			if v.s > end {
				total += v.e - v.s
				end = v.e
			} else if v.e > end {
				total += v.e - end
				end = v.e
			}
		}
		return time.Duration(total)
	}
	for k, o := range outs {
		if ops[k].mutate != nil {
			continue
		}
		f := union(filters[k])
		all := union(append(filters[k], verifies[k]...))
		c.filter += f
		c.verifyOnly += all - f
		c.self += o.latency - all
	}
	return c
}

// codecMetrics times the wire codecs and the feature extractor on the
// lane's requests, called directly: what the client, router and server
// each pay per query to put a request on or take it off the wire.
func codecMetrics(ops []op, queries []*graphcache.Graph, put func(string, float64, string)) error {
	nq := float64(len(queries))
	var encT, decT, encB, decB time.Duration
	var bytesT, bytesB int
	for _, o := range ops {
		if o.mutate != nil {
			continue
		}
		t0 := time.Now()
		text, err := graph.EncodeText(o.queries)
		t1 := time.Now()
		if err != nil {
			return err
		}
		_, err = graph.DecodeText(text)
		t2 := time.Now()
		if err != nil {
			return err
		}
		bin, err := graph.EncodeBinary(o.queries)
		t3 := time.Now()
		if err != nil {
			return err
		}
		_, err = graph.DecodeBinary(bin)
		t4 := time.Now()
		if err != nil {
			return err
		}
		encT, decT, encB, decB = encT+t1.Sub(t0), decT+t2.Sub(t1), encB+t3.Sub(t2), decB+t4.Sub(t3)
		bytesT, bytesB = bytesT+len(text), bytesB+len(bin)
	}
	put("graph.encode_text_us", us(encT)/nq, "us")
	put("graph.decode_text_us", us(decT)/nq, "us")
	put("graph.encode_binary_us", us(encB)/nq, "us")
	put("graph.decode_binary_us", us(decB)/nq, "us")
	put("graph.request_bytes_text", float64(bytesT)/nq, "bytes")
	put("graph.request_bytes_binary", float64(bytesB)/nq, "bytes")
	t := time.Now()
	for _, q := range queries {
		pathfeat.SimplePaths(q, 4)
	}
	put("pathfeat.extract_mean_us", us(time.Since(t))/nq, "us")
	return nil
}
