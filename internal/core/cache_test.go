package core

import (
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

func moleculeDataset(n int, seed int64) *dataset.Dataset {
	return gen.DefaultAIDS().Scaled(float64(n)/40000, 1).Generate(seed)
}

func typeAWorkload(ds *dataset.Dataset, cat string, n int, seed int64) []workload.Query {
	cfg, err := workload.TypeACategory(cat, 1.4, []int{4, 8, 12}, n)
	if err != nil {
		panic(err)
	}
	return workload.TypeA(ds, cfg, seed)
}

// TestAnswersMatchBaseline is the central correctness property: for every
// query, GraphCache must return exactly the wrapped method's answer,
// whatever the policy or configuration.
func TestAnswersMatchBaseline(t *testing.T) {
	ds := moleculeDataset(60, 3)
	queries := typeAWorkload(ds, "ZZ", 150, 4)
	configs := []Options{
		{},
		{Policy: LRU, CacheSize: 10, WindowSize: 5},
		{Policy: POP, CacheSize: 10, WindowSize: 5},
		{Policy: PIN, CacheSize: 10, WindowSize: 5},
		{Policy: PINC, CacheSize: 10, WindowSize: 5},
		{Policy: HD, CacheSize: 10, WindowSize: 5},
		{AdmissionFraction: 0.3, CacheSize: 15, WindowSize: 5},
		{DisableExactMatch: true, CacheSize: 10, WindowSize: 5},
		{DisableSubHits: true, CacheSize: 10, WindowSize: 5},
		{DisableSuperHits: true, CacheSize: 10, WindowSize: 5},
	}
	base := method.NewVF2Plus(ds)
	for ci, opts := range configs {
		c := New(ggsx.New(ds, ggsx.Options{}), opts)
		for qi, q := range queries {
			got := c.Query(q.Graph).Answer
			want := method.Answer(base, q.Graph)
			if !eq(got, want) {
				t.Fatalf("config %d query %d: GC answer %v != baseline %v", ci, qi, got, want)
			}
		}
		c.Flush()
	}
}

func TestAnswersMatchBaselineAsyncRebuild(t *testing.T) {
	ds := moleculeDataset(50, 5)
	queries := typeAWorkload(ds, "ZZ", 200, 6)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{AsyncRebuild: true, CacheSize: 20, WindowSize: 5})
	base := method.NewVF2(ds)
	for qi, q := range queries {
		got := c.Query(q.Graph).Answer
		want := method.Answer(base, q.Graph)
		if !eq(got, want) {
			t.Fatalf("query %d: async GC answer %v != baseline %v", qi, got, want)
		}
	}
	c.Flush()
	if c.Totals().WindowsProcessed == 0 {
		t.Error("async run must have rebuilt the index")
	}
}

func TestAnswersMatchBaselineOverSIMethod(t *testing.T) {
	ds := moleculeDataset(40, 7)
	queries := typeAWorkload(ds, "ZU", 100, 8)
	c := New(method.NewVF2Plus(ds), Options{CacheSize: 20, WindowSize: 5})
	base := method.NewVF2(ds)
	for qi, q := range queries {
		got := c.Query(q.Graph).Answer
		want := method.Answer(base, q.Graph)
		if !eq(got, want) {
			t.Fatalf("query %d: GC/SI answer %v != baseline %v", qi, got, want)
		}
	}
}

func TestSupergraphQueryMode(t *testing.T) {
	ds := moleculeDataset(40, 9)
	base := method.NewSuperSI(ds, iso.VF2{})
	c := New(method.NewSuperSI(ds, iso.VF2{}), Options{CacheSize: 15, WindowSize: 5})
	// Supergraph queries: larger extracted subgraphs so some dataset
	// graphs fit inside them; reuse Type A extraction with bigger sizes.
	cfg, _ := workload.TypeACategory("ZZ", 1.4, []int{20, 30, 40}, 80)
	for qi, q := range workload.TypeA(ds, cfg, 10) {
		got := c.Query(q.Graph).Answer
		want := method.Answer(base, q.Graph)
		if !eq(got, want) {
			t.Fatalf("query %d: supergraph GC answer %v != baseline %v", qi, got, want)
		}
	}
}

func TestExactMatchHit(t *testing.T) {
	ds := moleculeDataset(30, 11)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 2})
	qs := typeAWorkload(ds, "UU", 2, 12)
	q, filler := qs[0].Graph, qs[1].Graph

	first := c.Query(q)
	if first.Stats.ExactHit {
		t.Fatal("first occurrence cannot be an exact hit")
	}
	c.Query(filler) // completes the 2-query window → q enters the cache

	second := c.Query(q)
	if !second.Stats.ExactHit {
		t.Fatal("repeated query must be an exact hit once cached")
	}
	if second.Stats.SubIsoTests != 0 || second.Stats.CandidatesM != 0 {
		t.Error("exact hit must skip Method M entirely")
	}
	if !eq(second.Answer, first.Answer) {
		t.Errorf("exact hit answer %v != original %v", second.Answer, first.Answer)
	}
	// The hit must be credited to the cached entry.
	credited := false
	for _, r := range c.EntryStats() {
		if r.SpecialHits > 0 {
			credited = true
		}
	}
	if !credited {
		t.Error("exact hit not credited as a special hit")
	}
	tot := c.Totals()
	if tot.ExactHits != 1 {
		t.Errorf("Totals.ExactHits = %d, want 1", tot.ExactHits)
	}
}

func TestEmptyAnswerShortcut(t *testing.T) {
	// Build a tiny dataset and a query with an empty answer; once cached,
	// any supergraph of it must shortcut to an empty answer.
	ds := dataset.New([]*graph.Graph{pathG(1, 2, 3), pathG(2, 3, 4)})
	c := New(method.NewVF2(ds), Options{CacheSize: 10, WindowSize: 1})

	// P(5,6) has candidates? Label-domination says no graphs dominate, so
	// use labels present in the dataset but in an impossible shape: a
	// 1-1 edge exists nowhere.
	q1 := pathG(1, 1)
	r1 := c.Query(q1) // empty answer, enters cache (window size 1)
	if len(r1.Answer) != 0 {
		t.Fatalf("setup: P(1,1) should have no answers, got %v", r1.Answer)
	}

	q2 := pathG(1, 1, 2) // contains P(1,1): must shortcut
	r2 := c.Query(q2)
	if len(r2.Answer) != 0 {
		t.Fatalf("supergraph of empty-answer query returned %v", r2.Answer)
	}
	if !r2.Stats.EmptyShortcut {
		t.Error("empty-answer special case did not fire")
	}
	if r2.Stats.CandidatesM != 0 {
		t.Error("empty shortcut must skip Method M filtering")
	}
	if c.Totals().EmptyShortcuts != 1 {
		t.Errorf("Totals.EmptyShortcuts = %d, want 1", c.Totals().EmptyShortcuts)
	}
}

func TestCacheCapacityRespected(t *testing.T) {
	ds := moleculeDataset(40, 13)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 8, WindowSize: 4, Policy: PIN})
	for _, q := range typeAWorkload(ds, "UU", 120, 14) {
		c.Query(q.Graph)
		if got := len(c.CachedSerials()); got > 8 {
			t.Fatalf("cache grew to %d entries, cap is 8", got)
		}
	}
	c.Flush()
	if got := len(c.CachedSerials()); got == 0 {
		t.Error("cache still empty after 120 queries")
	}
	tot := c.Totals()
	if tot.WindowsProcessed == 0 || tot.Admitted == 0 {
		t.Errorf("window manager never ran: %+v", tot)
	}
	if tot.Evicted == 0 {
		t.Error("a full cache under continuous admissions must evict")
	}
}

func TestSubSuperHitsReduceCandidates(t *testing.T) {
	// Craft a dataset and cache a broad query; a contained follow-up must
	// get direct answers, a containing follow-up must get restrictions.
	ds := moleculeDataset(50, 15)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 1})
	qs := typeAWorkload(ds, "UU", 40, 16)

	sawDirect := false
	sawContainer := false
	for _, q := range qs {
		r := c.Query(q.Graph)
		if r.Stats.DirectAnswers > 0 {
			sawDirect = true
		}
		if r.Stats.Containers > 0 && !r.Stats.ExactHit {
			sawContainer = true
		}
	}
	if !sawDirect && !sawContainer {
		t.Error("40 overlapping BFS queries produced no sub/supergraph hits at all")
	}
}

func TestStatsCreditedOnHits(t *testing.T) {
	ds := moleculeDataset(40, 17)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 20, WindowSize: 2})
	for _, q := range typeAWorkload(ds, "ZZ", 80, 18) {
		c.Query(q.Graph)
	}
	totalHits := int64(0)
	for _, r := range c.EntryStats() {
		totalHits += r.Hits
	}
	if totalHits == 0 {
		t.Error("no hits credited over a skewed 80-query workload")
	}
}

func TestAdmissionControlCalibration(t *testing.T) {
	ds := moleculeDataset(40, 19)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{
		CacheSize: 20, WindowSize: 5,
		AdmissionFraction: 0.25,
	})
	qs := typeAWorkload(ds, "UU", 60, 20)
	for i, q := range qs {
		c.Query(q.Graph)
		if i == 5 && c.AdmissionThreshold() != 0 {
			t.Error("threshold must be 0 while calibrating")
		}
	}
	c.Flush()
	if c.AdmissionThreshold() <= 0 {
		t.Error("admission threshold never calibrated")
	}
	if c.Totals().RejectedByAdmission == 0 {
		t.Error("admission control rejected nothing after calibration")
	}
}

func TestAdmissionDisabledAdmitsAll(t *testing.T) {
	ds := moleculeDataset(30, 21)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 50, WindowSize: 5})
	for _, q := range typeAWorkload(ds, "UU", 30, 22) {
		c.Query(q.Graph)
	}
	if c.Totals().RejectedByAdmission != 0 {
		t.Error("disabled admission control must reject nothing")
	}
	if c.AdmissionThreshold() != 0 {
		t.Error("disabled admission control must keep threshold 0")
	}
}

func TestCachedEntryAccessor(t *testing.T) {
	ds := moleculeDataset(20, 23)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 5, WindowSize: 1})
	q := typeAWorkload(ds, "UU", 1, 24)[0].Graph
	c.Query(q)
	serials := c.CachedSerials()
	if len(serials) != 1 {
		t.Fatalf("cached %d entries, want 1", len(serials))
	}
	g, _, ok := c.CachedEntry(serials[0])
	if !ok || g.NumVertices() != q.NumVertices() {
		t.Error("CachedEntry must return the cached query")
	}
	if _, _, ok := c.CachedEntry(999); ok {
		t.Error("missing serial must report !ok")
	}
}

func TestOptionsAccessors(t *testing.T) {
	ds := moleculeDataset(10, 25)
	m := ggsx.New(ds, ggsx.Options{})
	c := New(m, Options{})
	if c.Method() != m {
		t.Error("Method accessor broken")
	}
	o := c.Options()
	if o.CacheSize != 100 || o.WindowSize != 20 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// TestRepeatedWorkloadSpeedsUp is a sanity check of the caching premise:
// with a highly repetitive workload, GC performs far fewer sub-iso tests
// than the method alone.
func TestRepeatedWorkloadSpeedsUp(t *testing.T) {
	ds := moleculeDataset(80, 27)
	queries := typeAWorkload(ds, "ZZ", 200, 28)
	m := ggsx.New(ds, ggsx.Options{})
	c := New(m, Options{CacheSize: 50, WindowSize: 5})
	var baseTests, gcTests int64
	for _, q := range queries {
		baseTests += int64(len(m.Filter(q.Graph)))
		r := c.Query(q.Graph)
		gcTests += int64(r.Stats.SubIsoTests)
	}
	if gcTests >= baseTests {
		t.Errorf("GC performed %d sub-iso tests vs baseline %d; cache did nothing", gcTests, baseTests)
	}
}

func TestWindowEntryScore(t *testing.T) {
	e := &entry{ledger: ledger{filterNS: 100, verifyNS: 400}}
	if got := e.score(); got != 4 {
		t.Errorf("score = %f, want 4", got)
	}
	e2 := &entry{ledger: ledger{filterNS: 0, verifyNS: 10}}
	if got := e2.score(); !isInf(got) {
		t.Errorf("zero filter time with verify work must score +Inf, got %f", got)
	}
	e3 := &entry{}
	if got := e3.score(); got != 0 {
		t.Errorf("all-zero entry must score 0, got %f", got)
	}
}

func isInf(f float64) bool { return f > 1e300 }

func TestDedupeWindow(t *testing.T) {
	g := pathG(1, 2)
	e1 := entryOf(1, g)
	e2 := entryOf(2, g)           // same pointer: dup
	e3 := entryOf(3, pathG(1, 2)) // iso dup
	e4 := entryOf(4, pathG(3, 4))
	got := dedupeWindow([]*entry{e1, e2, e3, e4})
	if len(got) != 2 {
		t.Fatalf("dedupe kept %d entries, want 2", len(got))
	}
	// Latest duplicate survives; serial order restored.
	if got[0].serial != 3 || got[1].serial != 4 {
		t.Errorf("kept serials %d,%d; want 3,4", got[0].serial, got[1].serial)
	}
}
