package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"graphcache/internal/gen"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

// ablationWorkload returns a molecule dataset, a VF2+ method over it and
// a Zipf-repeating workload.
func ablationWorkload(tb testing.TB) (method.Method, []workload.Query) {
	tb.Helper()
	ds := gen.DefaultAIDS().Scaled(0.003, 1).Generate(21)
	m := method.NewVF2Plus(ds)
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 150)
	if err != nil {
		tb.Fatal(err)
	}
	return m, workload.TypeA(ds, cfg, 9)
}

// TestAblationSwitchesPreserveCorrectness: disabling any hit mechanism
// may cost performance but never changes answers.
func TestAblationSwitchesPreserveCorrectness(t *testing.T) {
	m, qs := ablationWorkload(t)
	for _, opts := range []Options{
		{DisableExactMatch: true},
		{DisableSubHits: true},
		{DisableSuperHits: true},
		{DisableExactMatch: true, DisableSubHits: true, DisableSuperHits: true},
	} {
		opts.CacheSize, opts.WindowSize = 20, 5
		c := New(m, opts)
		for i, q := range qs {
			got := c.Query(q.Graph).Answer
			want := method.Answer(m, q.Graph)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v query %d: %v != %v", opts, i, got, want)
			}
		}
	}
}

// TestAblationSwitchesDisableTheirCounters: each switch zeroes exactly
// its mechanism's counter on a workload that otherwise exercises all
// three.
func TestAblationSwitchesDisableTheirCounters(t *testing.T) {
	m, qs := ablationWorkload(t)

	run := func(opts Options) Totals {
		opts.CacheSize, opts.WindowSize = 20, 5
		c := New(m, opts)
		for _, q := range qs {
			c.Query(q.Graph)
		}
		return c.Totals()
	}

	full := run(Options{})
	if full.ExactHits == 0 || full.ContainerHits == 0 || full.ContaineeHits == 0 {
		t.Fatalf("workload must exercise all hit kinds, got %+v", full)
	}
	if got := run(Options{DisableExactMatch: true}); got.ExactHits != 0 {
		t.Errorf("DisableExactMatch left %d exact hits", got.ExactHits)
	}
	// Container hits come from GCsub matches (cached queries containing
	// q); with them off, no direct answers can be lifted.
	if got := run(Options{DisableSubHits: true}); got.ContainerHits != 0 {
		t.Errorf("DisableSubHits left %d container hits", got.ContainerHits)
	}
	if got := run(Options{DisableSuperHits: true}); got.ContaineeHits != 0 {
		t.Errorf("DisableSuperHits left %d containee hits", got.ContaineeHits)
	}
}

// TestAblationExactOnlyStillHitsExactly: exact matching depends on
// DisableExactMatch alone. With both containment probes off — gcbench's
// "exact only" ablation row — isomorphic repeats are still answered from
// the cache; before the lookup that configuration left the probe, and with
// it the exact match, nothing to search, and the row measured bare Method M.
func TestAblationExactOnlyStillHitsExactly(t *testing.T) {
	m, qs := ablationWorkload(t)
	c := New(m, Options{CacheSize: 20, WindowSize: 5, DisableSubHits: true, DisableSuperHits: true})
	bare := 0
	for i, q := range qs {
		bare += len(m.Filter(q.Graph))
		if got, want := c.Query(q.Graph).Answer, method.Answer(m, q.Graph); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: %v != %v", i, got, want)
		}
	}
	tot := c.Totals()
	if tot.ExactHits == 0 {
		t.Fatal("the exact-only configuration had no exact hit")
	}
	if tot.ContainerHits != 0 || tot.ContaineeHits != 0 || tot.EmptyShortcuts != 0 {
		t.Errorf("containment hits with both probes off: %+v", tot)
	}
	// The lookup's confirmations are the only GC sub-iso tests left.
	if tot.GCVerifications < tot.ExactHits {
		t.Errorf("%d GC verifications for %d exact hits: every hit is confirmed", tot.GCVerifications, tot.ExactHits)
	}
	if tot.SubIsoTests >= int64(bare) {
		t.Errorf("%d sub-iso tests, bare Method M runs %d: the exact hits saved nothing", tot.SubIsoTests, bare)
	}
}

// TestConcurrentReadAccessors checks the read-side accessors are safe
// against a concurrently querying cache (for -race).
func TestConcurrentReadAccessors(t *testing.T) {
	m, qs := ablationWorkload(t)
	c := New(m, Options{CacheSize: 10, WindowSize: 3})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Totals()
			c.CachedSerials()
			c.AdmissionThreshold()
		}
	}()
	for _, q := range qs[:80] {
		c.Query(q.Graph)
	}
	close(stop)
	wg.Wait()
	c.Flush()
}

func TestQueryStatsTotalTime(t *testing.T) {
	// The stages run one after the other: latency is the GC stage, then
	// Method M's filter, then verification.
	s := QueryStats{
		FilterMTime:  2 * time.Millisecond,
		FilterGCTime: 3 * time.Millisecond,
		VerifyTime:   5 * time.Millisecond,
	}
	if got := s.TotalTime(); got != 10*time.Millisecond {
		t.Errorf("TotalTime() = %v, want 10ms", got)
	}
}
