package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// gatedMethod wraps a Method so every Verify call blocks until the gate
// channel is closed, letting tests freeze the batch pipeline inside the
// verification stage.
type gatedMethod struct {
	method.Method
	gate    chan struct{} // Verify blocks until this closes
	started chan struct{} // closed when the first Verify call arrives
	once    sync.Once
}

func (m *gatedMethod) Verify(q *graph.Graph, id int32) bool {
	m.once.Do(func() { close(m.started) })
	<-m.gate
	return m.Method.Verify(q, id)
}

// batchVerifierMethod upgrades a Method to the BatchVerifier extension,
// so tests can exercise the batch pipeline's per-query VerifyBatch
// branch with an ordinary method underneath.
type batchVerifierMethod struct {
	method.Method
}

func (m batchVerifierMethod) VerifyBatch(q *graph.Graph, ids []int32) []bool {
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = m.Verify(q, id)
	}
	return out
}

// cancelOnVerify wraps a Method so the Verify call numbered last cancels
// the run's context before it returns its verdict: the cancel lands after
// every test of the run has started.
type cancelOnVerify struct {
	method.Method
	last   int32
	cancel context.CancelFunc
	calls  atomic.Int32
}

func (m *cancelOnVerify) Verify(q *graph.Graph, id int32) bool {
	if m.calls.Add(1) == m.last {
		m.cancel()
	}
	return m.Method.Verify(q, id)
}

// TestQueryBatchContextCancellation pins the client-gone contract, for a
// batch and for a run of one query alike: cancelling the context
// mid-verification abandons the unstarted sub-iso tests, returns no
// results and context.Canceled, and leaves no trace of the run in the
// cache. The batch also runs over a BatchVerifier, whose queries are one
// chunk each (a run of one query is then a single chunk, already running
// when the client leaves).
func TestQueryBatchContextCancellation(t *testing.T) {
	for _, tc := range []struct {
		n     int
		batch bool
	}{{48, false}, {48, true}, {1, false}} {
		n := tc.n
		ds := moleculeDataset(60, 37)
		gm := &gatedMethod{
			Method:  ggsx.New(ds, ggsx.Options{}),
			gate:    make(chan struct{}),
			started: make(chan struct{}),
		}
		var m method.Method = gm
		if tc.batch {
			m = batchVerifierMethod{gm}
		}
		c := New(m, Options{CacheSize: 20, WindowSize: 5, VerifyConcurrency: 2})
		var qs []*graph.Graph
		for _, q := range typeAWorkload(ds, "ZZ", 48, 38) {
			// A lone query needs a chunk of tests left to abandon once
			// both workers have theirs in flight.
			if len(qs) < n && (n > 1 || len(gm.Filter(q.Graph)) > 2*adaptiveGrain) {
				qs = append(qs, q.Graph)
			}
		}
		if len(qs) != n {
			t.Fatalf("workload yields %d of %d queries", len(qs), n)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		type outcome struct {
			results   []Result
			abandoned int
			err       error
		}
		done := make(chan outcome, 1)
		go func() {
			results, abandoned, err := c.QueryBatchContext(ctx, qs)
			done <- outcome{results, abandoned, err}
		}()

		// Wait until verification is underway, cancel the client, then let
		// the in-flight tests drain.
		select {
		case <-gm.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("run of %d: verification never started", len(qs))
		}
		cancel()
		close(gm.gate)

		out := <-done
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("run of %d: err = %v, want context.Canceled", len(qs), out.err)
		}
		if out.abandoned == 0 {
			t.Errorf("run of %d: abandoned = 0, want > 0: cancellation must skip unstarted verifications", len(qs))
		}
		if out.results != nil {
			t.Errorf("run of %d: a cut run returned %d results, want none", len(qs), len(out.results))
		}
		// The cancelled run must leave the cache as if it never ran: no
		// lifetime totals, and nothing promoted into the cache store.
		if got := c.Totals(); got != (Totals{}) {
			t.Errorf("run of %d: Totals() = %+v after cancellation, want zero", len(qs), got)
		}
		c.Flush()
		if serials := c.CachedSerials(); len(serials) != 0 {
			t.Errorf("cancelled run of %d promoted %d entries into the cache", len(qs), len(serials))
		}
	}
}

// TestQueryBatchContextCancelAfterLastVerdict covers a client that leaves
// once the run's last sub-iso test is under way: the batch's context is
// dead by the time the bookkeeping runs, but nothing was abandoned, so
// the batch must count — in the totals and in the window — exactly like
// an uncancelled one.
func TestQueryBatchContextCancelAfterLastVerdict(t *testing.T) {
	ds := moleculeDataset(60, 37)
	queries := typeAWorkload(ds, "UU", 24, 39)
	qs := make([]*graph.Graph, len(queries))
	for i, q := range queries {
		qs[i] = q.Graph
	}
	opts := Options{CacheSize: 20, WindowSize: 5}
	// The same batch on a fresh cache runs the same tests, so a dry run
	// numbers the last Verify call.
	dry := New(ggsx.New(ds, ggsx.Options{}), opts)
	dry.QueryBatch(qs)
	tests := dry.Totals().SubIsoTests
	if tests == 0 {
		t.Fatal("the batch runs no sub-iso test")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &cancelOnVerify{Method: ggsx.New(ds, ggsx.Options{}), last: int32(tests), cancel: cancel}
	c := New(m, opts)
	results, abandoned, err := c.QueryBatchContext(ctx, qs)
	if err != nil || abandoned != 0 || len(results) != len(qs) {
		t.Fatalf("%d results, abandoned %d, err %v; want a completed batch", len(results), abandoned, err)
	}
	if ctx.Err() == nil {
		t.Fatal("the last Verify call did not cancel the run")
	}
	if got := c.Totals().Queries; got != int64(len(qs)) {
		t.Errorf("Totals().Queries = %d, want %d", got, len(qs))
	}
	c.Flush()
	if len(c.CachedSerials()) == 0 {
		t.Error("a fully verified batch cached nothing")
	}
}
