package method

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestLimiterParallelForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, extra := range []int{-1, 0, 1, 3, 15, 100} {
		const n = 257
		l := NewLimiter(extra)
		hits := make([]atomic.Int32, n)
		l.ParallelFor(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("extra=%d: f(%d) ran %d times, want 1", extra, i, got)
			}
		}
	}
	ran := false
	NewLimiter(4).ParallelFor(0, func(int) { ran = true })
	if ran {
		t.Error("ParallelFor(0, ...) must not invoke f")
	}
}

// TestLimiterParallelForNRespectsWorkerCeiling: the bounded variant must
// cover every index exactly once and never run more than maxWorkers
// concurrently, including the degenerate inline cases.
func TestLimiterParallelForNRespectsWorkerCeiling(t *testing.T) {
	for _, maxWorkers := range []int{0, 1, 2, 4, 100} {
		const n = 97
		l := NewLimiter(64)
		hits := make([]atomic.Int32, n)
		var inFlight, peak atomic.Int32
		l.ParallelForN(n, maxWorkers, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			hits[i].Add(1)
			inFlight.Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("maxWorkers=%d: f(%d) ran %d times, want 1", maxWorkers, i, got)
			}
		}
		bound := int32(maxWorkers)
		if bound < 1 {
			bound = 1
		}
		if p := peak.Load(); p > bound {
			t.Errorf("maxWorkers=%d: peak concurrency %d exceeds bound %d", maxWorkers, p, bound)
		}
	}
}

// TestLimiterSharedAcrossCallers checks the semaphore bound: with E extra
// slots shared by C concurrent callers, in-flight workers never exceed
// C + E.
func TestLimiterSharedAcrossCallers(t *testing.T) {
	const callers, extra, perCaller = 4, 3, 200
	l := NewLimiter(extra)
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			l.ParallelFor(perCaller, func(int) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inFlight.Add(-1)
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > callers+extra {
		t.Errorf("peak in-flight workers = %d, want <= %d", p, callers+extra)
	}
}
