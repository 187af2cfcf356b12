package server

import (
	"context"
	"errors"
	"testing"
)

// TestServerShedsPastThreshold pins gcserved's own back-stop shedding: a
// batch whose size would push admitted work past ShedThreshold is
// refused with 429 + Retry-After before any query executes, while work
// within the threshold is served, and the sheds are visible in /stats.
func TestServerShedsPastThreshold(t *testing.T) {
	ds := testDataset(30, 91)
	queries := testWorkload(ds, 4, 92)
	cache := newTestCache(ds)
	s := startServer(t, cache, Options{ShedThreshold: 2})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	// A batch of 3 over a threshold of 2 is refused atomically.
	_, err := cl.QueryBatch(ctx, queries[:3])
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("oversized batch returned %v, want a 429 StatusError", err)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("429 reply carried no Retry-After hint (got %v)", se.RetryAfter)
	}
	if got := cache.Totals().Queries; got != 0 {
		t.Errorf("refused batch still executed %d queries", got)
	}

	// Work within the threshold is served normally.
	if _, err := cl.QueryBatch(ctx, queries[:2]); err != nil {
		t.Fatalf("batch within threshold: %v", err)
	}
	if _, err := cl.Query(ctx, queries[3]); err != nil {
		t.Fatalf("single query within threshold: %v", err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Shed != 1 {
		t.Errorf("/stats reports %d sheds, want 1", st.Shed)
	}
}
