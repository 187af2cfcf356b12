package main

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"graphcache"
	"graphcache/internal/graph"
)

// small is the workload over a dataset of 200 graphs instead of 800 or
// 2000: what the tests check does not depend on the scale, and indexes
// build (and VF2+ answers) four to ten times faster.
func small(name string) spec {
	sp, _ := specByName(name)
	sp.scale = 0.005
	return sp
}

// tiny is a plan small enough for every workload to run in a second or
// two: one set-up, a short warm-up, a fraction of a second measured.
func tiny(sp spec) plan {
	pl := plan{setupReps: 1, warm: 40, settle: 10, length: 300 * time.Millisecond, measured: 400, counted: 50, laneOps: 110, loadOps: 110}
	if sp.batch > 1 {
		pl.warm, pl.measured, pl.laneOps, pl.loadOps = 4, 60, 6, 6
	}
	if sp.method == "vf2plus" {
		pl.measured, pl.laneOps, pl.loadOps = 100, 20, 20
	}
	if sp.openRate > 0 {
		pl.measured = int(sp.openRate * pl.length.Seconds())
	}
	return pl
}

// The declaration cannot rot: what BENCHMARK.json names is exactly what
// the program has and prints.
func TestDeclarationMatchesOutput(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		sp, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares workload %q, the program has none", w.Name)
		}
		if sp.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why = %q, the program %q", w.Name, w.Why, sp.why)
		}
	}
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declared, have)
	}
	for _, sp := range specs {
		sp = small(sp.name)
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			res, err := runEndToEnd(sp, 1, tiny(sp))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "end to end", res, decl.EndToEnd)
			res, err = runTraced(sp, 1, tiny(sp), "")
			if err != nil {
				t.Fatal("traced:", err)
			}
			checkResult(t, "traced", res, decl.PerLayer)
		})
	}
}

func checkResult(t *testing.T, what string, res result, want []declared) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	units := map[string]string{}
	for _, d := range want {
		units[d.Name] = d.Unit
	}
	for name, m := range res.Metrics {
		unit, ok := units[name]
		if !ok {
			t.Errorf("%s: prints %s, which BENCHMARK.json does not declare", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s is printed in %s, declared in %s", what, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
		delete(units, name)
	}
	for name := range units {
		t.Errorf("%s: BENCHMARK.json declares %s, which is not printed", what, name)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.p, got, c.want)
		}
		if got := beyond(len(xs), c.p); got != c.beyond {
			t.Errorf("beyond p%v of 1000 samples = %d, want %d", c.p, got, c.beyond)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}

	// The ≥10-beyond rule decides how many segments a tail is cut into:
	// p99 needs 1000 samples a segment.
	for _, c := range []struct{ n, segments, beyond int }{{3750, 3, 12}, {2000, 2, 10}, {999, 1, 9}, {50, 1, 0}} {
		got := tailPercentile(make([]float64, c.n), 0.99)
		if got.segments != c.segments || got.beyond != c.beyond {
			t.Errorf("p99 of %d samples: %d segments with %d beyond, want %d with %d", c.n, got.segments, got.beyond, c.segments, c.beyond)
		}
	}
	// One polluted stretch moves one segment, not the figure.
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = 1 + float64(i%100)/100
		if i >= 1000 && i < 1100 {
			lat[i] = 500 // a stall
		}
	}
	if got := tailPercentile(lat, 0.99); got.value > 2 {
		t.Errorf("steadied p99 = %v, want it unmoved by a stall confined to one segment", got.value)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// which is what the driver judges spreads with.
func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 29, 2, 22, 4, 16, 7, 37, 11}
	if got, want := quartileSpread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	d := declared{Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "ok"},
		{[]float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, "worse"},
		{[]float64{10, 13, 7}, []float64{10.5, 10.4, 10.6}, "unresolved"},
		{[]float64{10, 10.1, 9.9}, []float64{5, 5.1, 4.9}, "ok"},
	} {
		if _, got := d.verdict(c.a, c.b); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if _, got := (declared{Better: "higher", Bound: 0.1}).verdict([]float64{10, 10, 10}, []float64{8, 8, 8}); got != "worse" {
		t.Errorf("a throughput that drops 20%% is %s, want worse", got)
	}
}

// stallTarget answers at once, except that its first query blocks.
type stallTarget struct {
	stall time.Duration
	calls atomic.Int32
}

func (s *stallTarget) query(context.Context, []*graphcache.Graph) ([]reply, error) {
	if s.calls.Add(1) == 1 {
		time.Sleep(s.stall)
	}
	return []reply{{}}, nil
}
func (s *stallTarget) mutate(context.Context, *graphcache.ServerMutateRequest) error { return nil }

// An open loop times every request from when it was due: a stalled
// request makes the ones queued behind it late, their latency includes
// the wait, and sched_lag reports how late the generator sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, stall = 10, 100 * time.Millisecond
	ops := make([]op, n)
	gaps := make([]time.Duration, n)
	for i := range ops {
		ops[i].queries = []*graphcache.Graph{nil}
		gaps[i] = time.Millisecond
	}
	d := &driver{ops: ops, tgt: &stallTarget{stall: stall}, callers: 1}
	outs := d.open(context.Background(), 0, n, gaps, time.Minute)
	for i, o := range outs {
		if !o.done || o.failed {
			t.Fatalf("op %d: done=%v failed=%v", i, o.done, o.failed)
		}
	}
	if outs[0].lag > 20*time.Millisecond || outs[0].latency < stall {
		t.Errorf("stalled op: lag %v latency %v, want sent on time and ≥ %v", outs[0].lag, outs[0].latency, stall)
	}
	for i := 1; i < n; i++ {
		// op i was due i ms after op 0 and could only go out once the
		// stall ended.
		wait := stall - time.Duration(i+5)*time.Millisecond
		if outs[i].lag < wait || outs[i].latency < outs[i].lag {
			t.Errorf("op %d behind the stall: lag %v latency %v, want both ≥ %v", i, outs[i].lag, outs[i].latency, wait)
		}
	}
	// A closed loop does not see it: the same stall delays nothing but
	// the stalled request itself.
	outs = (&driver{ops: ops, tgt: &stallTarget{stall: stall}, callers: 1}).closed(context.Background(), 0, n, time.Time{})
	for i := 1; i < n; i++ {
		if outs[i].lag != 0 || outs[i].latency > stall/2 {
			t.Errorf("closed loop op %d: lag %v latency %v", i, outs[i].lag, outs[i].latency)
		}
	}
	// Nothing is sent past the give-up time; what was not sent has failed.
	outs = (&driver{ops: ops, tgt: &stallTarget{stall: stall}, callers: 1}).open(context.Background(), 0, n, gaps, stall/2)
	if s := summarise(ops, outs); s.attempted != n || s.failed != n-1 {
		t.Errorf("giving up at %v: attempted %d failed %d, want %d and %d", stall/2, s.attempted, s.failed, n, n-1)
	}
}

func fingerprint(t *testing.T, in *inputs) string {
	t.Helper()
	var fp []byte
	for _, o := range in.ops {
		if o.mutate != nil {
			fp = append(fp, o.mutate.Op+o.mutate.Graphs...)
			for _, id := range o.mutate.IDs {
				fp = append(fp, byte(id), byte(id>>8), byte(id>>16))
			}
			continue
		}
		text, err := graph.EncodeText(o.queries)
		if err != nil {
			t.Fatal(err)
		}
		fp = append(fp, text...)
	}
	for _, g := range in.gaps {
		fp = append(fp, byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
	}
	return string(fp)
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		sp = small(sp.name)
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			build := func(seed int64) string {
				in, err := buildInputs(sp, seed, 10, 250)
				if err != nil {
					t.Fatal(err)
				}
				if len(in.ops) != 250 || in.warm != 10 {
					t.Fatalf("%d ops, %d warm-up", len(in.ops), in.warm)
				}
				return fingerprint(t, in)
			}
			a, b, c := build(7), build(7), build(8)
			if a != b {
				t.Error("seed 7 gave two different operation sequences")
			}
			if a == c {
				t.Error("seeds 7 and 8 gave the same operation sequence")
			}
		})
	}
}

// countsOnly drops the wall-clock fields of Totals.
func countsOnly(t graphcache.Totals) graphcache.Totals {
	t.FilterMTime, t.FilterGCTime, t.VerifyTime, t.MaintenanceTime = 0, 0, 0, 0
	return t
}

// A cache over the timing decorator behaves exactly like one over the
// bare method — same answers, same Totals, mutations included — and the
// decorator has the optional interfaces of what it wraps, no more.
func TestDecoratorIsTransparent(t *testing.T) {
	t.Parallel()
	sp := small("mutate_mix")
	// Every bundled method is dynamic; grapes6 also verifies in batches.
	for _, method := range []string{"ggsx", "grapes6"} {
		sp.method = method
		in, err := buildInputs(sp, 3, 0, 320) // three mutations: add, remove, edit
		if err != nil {
			t.Fatal(err)
		}
		run := func(decorated bool) (*libTarget, []outcome, graphcache.Method) {
			m, err := in.newMethod()
			if err != nil {
				t.Fatal(err)
			}
			tgt := &libTarget{cur: new(atomic.Int32)}
			if decorated {
				m = decorate(m, newRecorder(0), "lib", tgt.cur)
			}
			tgt.cache = graphcache.New(m, graphcache.Options{})
			outs := (&driver{ops: in.ops, tgt: tgt, callers: 1}).closed(context.Background(), 0, len(in.ops), time.Time{})
			return tgt, outs, m
		}
		plain, plainOuts, inner := run(false)
		timed, timedOuts, outer := run(true)
		for i := range plainOuts {
			if plainOuts[i].failed || timedOuts[i].failed {
				t.Fatalf("%s: op %d failed", method, i)
			}
			if !slices.Equal(plainOuts[i].digests, timedOuts[i].digests) {
				t.Fatalf("%s: op %d answered differently under the decorator", method, i)
			}
		}
		if a, b := countsOnly(plain.cache.Totals()), countsOnly(timed.cache.Totals()); a != b {
			t.Errorf("%s: Totals differ under the decorator:\n%+v\n%+v", method, a, b)
		}
		if plain.n != timed.n || plain.n.queries != 317 {
			t.Errorf("%s: per-query statistics differ under the decorator:\n%+v\n%+v", method, plain.n, timed.n)
		}
		if a := plain.cache.Totals(); a.Mutations != 3 {
			t.Errorf("%s: %d mutations applied, want 3", method, a.Mutations)
		}
		_, innerDyn := inner.(graphcache.DynamicMethod)
		_, outerDyn := outer.(graphcache.DynamicMethod)
		_, innerBatch := inner.(batchVerifier)
		_, outerBatch := outer.(batchVerifier)
		if innerDyn != outerDyn || innerBatch != outerBatch {
			t.Errorf("%s: method is dynamic=%v batch=%v, its decorator dynamic=%v batch=%v", method, innerDyn, innerBatch, outerDyn, outerBatch)
		}
		if method == "grapes6" && !outerBatch {
			t.Errorf("grapes6 should exercise the BatchVerifier variant")
		}
	}
}

// The lib lane's counts repeat exactly for a seed and move with it.
func TestLibLaneRepeats(t *testing.T) {
	t.Parallel()
	sp := small("hot_zz")
	counts := func(seed int64) engineCounts {
		in, err := buildInputs(sp, seed, 0, 400)
		if err != nil {
			t.Fatal(err)
		}
		tgt := &libTarget{cur: new(atomic.Int32), cache: graphcache.New(in.m, graphcache.Options{})}
		(&driver{ops: in.ops, tgt: tgt, callers: 1}).closed(context.Background(), 0, len(in.ops), time.Time{})
		return tgt.n
	}
	a, b, c := counts(5), counts(5), counts(6)
	if a != b {
		t.Errorf("seed 5 twice: %+v then %+v", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave identical counts %+v", a)
	}
}

// The oracle accepts a correct run across mutations and catches a wrong
// answer, a stale answer, and nothing else.
func TestOracleJudges(t *testing.T) {
	t.Parallel()
	sp := small("mutate_mix")
	in, err := buildInputs(sp, 2, 50, 450)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBare(in, sp.method)
	if err != nil {
		t.Fatal(err)
	}
	outs := (&driver{ops: in.ops, tgt: bareTarget{b}, callers: 1}).closed(context.Background(), 0, len(in.ops), time.Time{})
	judge := func(outs []outcome) judged {
		or, err := newOracle(in)
		if err != nil {
			t.Fatal(err)
		}
		jd, err := or.judge(in.ops, outs, in.warm, len(outs))
		if err != nil {
			t.Fatal(err)
		}
		return jd
	}
	good := judge(append([]outcome(nil), outs...))
	if good.wrong != 0 || good.queries != 396 || good.bareTest == 0 || good.fleetTest != good.bareTest {
		t.Fatalf("a bare run judged %+v, want 396 correct queries that saved nothing", good)
	}

	bad := append([]outcome(nil), outs...)
	bad[120].digests = []uint64{bad[120].digests[0] ^ 1}
	if jd := judge(bad); jd.wrong != 1 || !bad[120].failed {
		t.Errorf("one corrupted answer judged %+v", jd)
	}

	// Answers from before the latest mutation are wrong once it has been
	// acknowledged, and fine while it is still in flight.
	var changed []int // queries after op 399's edit whose answer it changed
	stale := append([]outcome(nil), outs...)
	pre, err := newBare(in, sp.method)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range in.ops[:399] {
		if o.mutate != nil {
			if err := pre.apply(o.mutate); err != nil {
				t.Fatal(i, err)
			}
		}
	}
	for i := 400; i < len(in.ops); i++ {
		answer, _ := pre.answer(in.ops[i].queries[0])
		if d := digest(answer); d != outs[i].digests[0] {
			stale[i].digests = []uint64{d}
			changed = append(changed, i)
		}
	}
	if len(changed) == 0 {
		t.Skip("the edit at op 399 changed no later answer under this seed")
	}
	if jd := judge(append([]outcome(nil), stale...)); jd.wrong != len(changed) {
		t.Errorf("%d stale answers judged %+v", len(changed), jd)
	}
	for _, i := range changed {
		stale[i].epochLo-- // sent before the edit was acknowledged
	}
	if jd := judge(stale); jd.wrong != 0 {
		t.Errorf("answers racing the mutation judged %+v, want them accepted", jd)
	}
}
