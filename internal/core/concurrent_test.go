package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/ggsx"
	"graphcache/internal/method"
)

// TestConcurrentQueryMatchesSerial drives ≥8 goroutines through one shared
// Cache.Query and asserts every answer is byte-identical to the serial
// baseline for the same query — the pruning rules are sound under any
// interleaving of concurrent callers. Run with -race, this is also the
// concurrency soundness check for the whole query path.
func TestConcurrentQueryMatchesSerial(t *testing.T) {
	const callers = 8
	ds := moleculeDataset(60, 11)
	queries := typeAWorkload(ds, "ZZ", 240, 12)
	base := method.NewVF2Plus(ds)

	// Serial baseline answers, computed once up front.
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = method.Answer(base, q.Graph)
	}

	c := New(ggsx.New(ds, ggsx.Options{}), Options{
		CacheSize:    20,
		WindowSize:   5,
		AsyncRebuild: true,
	})
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errs   []string
	)
	wg.Add(callers)
	for w := 0; w < callers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				got := c.Query(queries[i].Graph).Answer
				if !eq(got, want[i]) {
					mu.Lock()
					errs = append(errs, "answer mismatch")
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	c.Flush()
	if len(errs) > 0 {
		t.Fatalf("%d of %d concurrent answers diverged from the serial baseline", len(errs), len(queries))
	}
	if got := c.Totals().Queries; got != int64(len(queries)) {
		t.Errorf("Totals().Queries = %d, want %d", got, len(queries))
	}
}

// TestVerifyConcurrencyDeterministic asserts the worker pool does not
// change answers: a serial-verification cache and a wide-pool cache return
// identical results over the same workload.
func TestVerifyConcurrencyDeterministic(t *testing.T) {
	ds := moleculeDataset(50, 13)
	queries := typeAWorkload(ds, "ZU", 120, 14)
	serial := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, VerifyConcurrency: 1})
	wide := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 15, WindowSize: 5, VerifyConcurrency: 8})
	for i, q := range queries {
		a := serial.Query(q.Graph).Answer
		b := wide.Query(q.Graph).Answer
		if !eq(a, b) {
			t.Fatalf("query %d: VerifyConcurrency=8 answer %v != serial %v", i, b, a)
		}
	}
}

// TestConcurrentStatsCrediting checks that hit statistics survive
// concurrent crediting: total queries recorded equals the workload length
// and the stats store stays consistent (every cached serial has a row).
func TestConcurrentStatsCrediting(t *testing.T) {
	const callers = 8
	ds := moleculeDataset(40, 15)
	queries := typeAWorkload(ds, "ZZ", 160, 16)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 5})
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	for w := 0; w < callers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				c.Query(queries[i].Graph)
			}
		}()
	}
	wg.Wait()
	c.Flush()
	checkEntryStats(t, c)
}
