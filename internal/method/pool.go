package method

import (
	"sync"
	"sync/atomic"
)

// Limiter is a counting semaphore bounding the total number of extra
// worker goroutines in flight across all its ParallelFor calls. One
// Limiter shared by N concurrent callers keeps total verification
// parallelism at N + capacity instead of N × workers: every caller always
// executes work inline (it would otherwise sit idle), and pooled extras
// are granted only while slots are free — callers never block on the
// pool.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a Limiter allowing up to extra pooled workers beyond
// the callers themselves (extra < 0 is treated as 0, i.e. fully inline).
func NewLimiter(extra int) *Limiter {
	if extra < 0 {
		extra = 0
	}
	return &Limiter{sem: make(chan struct{}, extra)}
}

// ParallelFor runs f(i) for every i in [0, n) on the calling goroutine
// plus as many pooled workers as are free (at most n-1), claiming indices
// from a shared atomic counter. It returns once every call has completed.
// f must be safe for concurrent invocation with distinct indices; writes
// to out[i]-style slots need no further synchronisation because each
// index is claimed exactly once and the final wait happens-after every f
// call.
func (l *Limiter) ParallelFor(n int, f func(i int)) { l.ParallelForN(n, n, f) }

// ParallelForN is ParallelFor with an explicit ceiling on total workers
// (caller included): at most maxWorkers-1 pooled extras are requested,
// however large n is. Callers use it to right-size the fan-out when the
// expected work per item is small — waking the whole pool for a handful of
// cheap items costs more in goroutine wakeups than it saves. maxWorkers <=
// 1 runs everything inline, in index order.
func (l *Limiter) ParallelForN(n, maxWorkers int, f func(i int)) {
	if n <= 1 || maxWorkers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	extras := n - 1
	if maxWorkers-1 < extras {
		extras = maxWorkers - 1
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < extras; spawned++ {
		select {
		case l.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-l.sem }()
				work()
			}()
			continue
		default:
		}
		break
	}
	work() // the caller always participates
	wg.Wait()
}
