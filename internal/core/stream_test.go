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
	gate     chan struct{} // Verify blocks until this closes
	started  chan struct{} // closed when the first Verify call arrives
	once     sync.Once
	verifies atomic.Int32
}

func (m *gatedMethod) Verify(q *graph.Graph, id int32) bool {
	m.once.Do(func() { close(m.started) })
	<-m.gate
	m.verifies.Add(1)
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

// TestQueryBatchStreamMatchesQueryBatch is the streaming path's identity
// property: collecting QueryBatchStream's deliveries must reproduce
// QueryBatch's results index for index — same answers, cold and warm,
// on both verification branches (plain Verify fan-out and the
// BatchVerifier per-query path).
func TestQueryBatchStreamMatchesQueryBatch(t *testing.T) {
	ds := moleculeDataset(50, 33)
	queries := typeAWorkload(ds, "ZZ", 120, 34)
	for _, tc := range []struct {
		name string
		mk   func() method.Method
	}{
		{"verify", func() method.Method { return ggsx.New(ds, ggsx.Options{}) }},
		{"batchverifier", func() method.Method { return batchVerifierMethod{ggsx.New(ds, ggsx.Options{})} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{CacheSize: 20, WindowSize: 5}
			buf := New(tc.mk(), opts)
			str := New(tc.mk(), opts)

			// Two passes over the same batches: the second runs against a
			// warm cache, so exact-match and empty-answer specials stream
			// through the pre-verification flush too.
			for pass := 0; pass < 2; pass++ {
				for lo := 0; lo < len(queries); lo += 40 {
					qs := make([]*graph.Graph, 0, 40)
					for _, q := range queries[lo:min(lo+40, len(queries))] {
						qs = append(qs, q.Graph)
					}
					want := buf.QueryBatch(qs)

					got := make([]*Result, len(qs))
					var mu sync.Mutex
					abandoned, err := str.QueryBatchStream(context.Background(), qs, func(i int, r Result) {
						mu.Lock()
						defer mu.Unlock()
						if got[i] != nil {
							t.Errorf("pass %d: query %d delivered twice", pass, i)
						}
						got[i] = &r
					})
					if err != nil || abandoned != 0 {
						t.Fatalf("pass %d: QueryBatchStream: abandoned=%d err=%v", pass, abandoned, err)
					}
					for i := range qs {
						if got[i] == nil {
							t.Fatalf("pass %d: query %d never delivered", pass, lo+i)
						}
						if !eq(got[i].Answer, want[i].Answer) {
							t.Fatalf("pass %d query %d: streamed answer %v != batched %v", pass, lo+i, got[i].Answer, want[i].Answer)
						}
					}
				}
			}
			// Streaming must do the cache bookkeeping a buffered batch
			// does: both caches saw identical traffic, so their lifetime
			// totals agree.
			if b, s := buf.Totals().Queries, str.Totals().Queries; b != s {
				t.Errorf("Totals().Queries: streamed %d != buffered %d", s, b)
			}
		})
	}
}

// TestQueryBatchStreamArrivalOrder pins the streaming guarantee the
// serving tier sells: a batch query that needs no verification is
// delivered before the batch's last verification completes. The method
// is gated so no Verify call can finish until the test has already
// received the cheap query's result — if delivery waited for the whole
// batch, the test would time out instead.
func TestQueryBatchStreamArrivalOrder(t *testing.T) {
	ds := moleculeDataset(40, 35)
	gm := &gatedMethod{
		Method:  ggsx.New(ds, ggsx.Options{}),
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	c := New(gm, Options{CacheSize: 10, WindowSize: 4})
	queries := typeAWorkload(ds, "ZZ", 3, 36)

	// Query 0 carries a label the dataset never uses: its candidate set
	// is empty, so it resolves with zero sub-iso tests. The others are
	// ordinary queries whose candidates all block on the gate.
	alien := graph.NewBuilder().SetID(-1)
	alien.AddVertex(60000)
	qs := []*graph.Graph{alien.MustBuild(), queries[0].Graph, queries[1].Graph, queries[2].Graph}

	first := make(chan int, len(qs))
	done := make(chan error, 1)
	go func() {
		_, err := c.QueryBatchStream(context.Background(), qs, func(i int, r Result) {
			select {
			case first <- i:
			default:
			}
		})
		done <- err
	}()

	select {
	case i := <-first:
		if i != 0 {
			t.Errorf("first delivered index = %d, want 0 (the zero-candidate query)", i)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no result delivered while verification was still blocked")
	}
	close(gm.gate)
	if err := <-done; err != nil {
		t.Fatalf("QueryBatchStream: %v", err)
	}
	if gm.verifies.Load() == 0 {
		t.Fatal("batch ran no verifications — the arrival-order property was tested vacuously")
	}
}

// TestQueryBatchStreamCancellation pins the client-gone contract, for a
// batch and for a run of one query alike: cancelling the context
// mid-verification abandons the unstarted sub-iso tests, stops deliveries
// short of the full run, surfaces context.Canceled, and leaves no trace of
// the run in the cache. The batch also runs over a BatchVerifier, whose
// queries are one chunk each (a run of one query is then a single chunk,
// already running when the client leaves).
func TestQueryBatchStreamCancellation(t *testing.T) {
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
		var delivered atomic.Int32
		type outcome struct {
			abandoned int
			err       error
		}
		done := make(chan outcome, 1)
		go func() {
			abandoned, err := c.QueryBatchStream(ctx, qs, func(i int, r Result) {
				delivered.Add(1)
			})
			done <- outcome{abandoned, err}
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
		if d := int(delivered.Load()); d >= len(qs) {
			t.Errorf("delivered %d of %d results despite cancellation", d, len(qs))
		}
		// The cancelled run must leave the cache as if it never ran: no
		// lifetime totals, and nothing promoted into the cache store.
		if got := c.Totals().Queries; got != 0 {
			t.Errorf("run of %d: Totals().Queries = %d after cancellation, want 0", len(qs), got)
		}
		c.Flush()
		if serials := c.CachedSerials(); len(serials) != 0 {
			t.Errorf("cancelled run of %d promoted %d entries into the cache", len(qs), len(serials))
		}
	}
}

// TestQueryBatchStreamCancelAfterLastDelivery covers a streaming client's
// normal ending: it leaves, cancelling its context, the moment its last
// result is delivered, so the batch's context is dead by the time the
// bookkeeping runs. Nothing was abandoned, so the batch must count — in
// the totals and in the window — exactly like an uncancelled one.
func TestQueryBatchStreamCancelAfterLastDelivery(t *testing.T) {
	ds := moleculeDataset(60, 37)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 20, WindowSize: 5})
	queries := typeAWorkload(ds, "UU", 24, 39)
	qs := make([]*graph.Graph, len(queries))
	for i, q := range queries {
		qs[i] = q.Graph
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int32
	abandoned, err := c.QueryBatchStream(ctx, qs, func(i int, r Result) {
		if int(delivered.Add(1)) == len(qs) {
			cancel()
		}
	})
	if err != nil || abandoned != 0 {
		t.Fatalf("abandoned %d, err %v; want a completed batch", abandoned, err)
	}
	if got := c.Totals().Queries; got != int64(len(qs)) {
		t.Errorf("Totals().Queries = %d, want %d", got, len(qs))
	}
	c.Flush()
	if len(c.CachedSerials()) == 0 {
		t.Error("a fully delivered batch cached nothing")
	}
}
