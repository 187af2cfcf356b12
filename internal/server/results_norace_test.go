//go:build !race

package server

import (
	"math/rand"
	"testing"
)

// TestHasMediaTypeAllocations pins that telling a binary request from a
// text one allocates nothing for a Content-Type without parameters.
func TestHasMediaTypeAllocations(t *testing.T) {
	for _, h := range []string{ContentTypeBinary, "text/plain"} {
		if n := testing.AllocsPerRun(100, func() { hasMediaType(h, ContentTypeBinary) }); n != 0 {
			t.Errorf("hasMediaType(%q): %v allocations, want 0", h, n)
		}
	}
}

// TestResultCodecAllocations pins what the result codec costs the
// allocator on a 32-result batch: encoding into a reused buffer allocates
// nothing, and decoding — into a Results slice sized for the batch, as
// Client.QueryBatch does — allocates that slice and one array per
// non-empty answer. Not under -race: the detector's own bookkeeping
// allocates.
func TestResultCodecAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rs := make([]QueryResponse, 32)
	nonEmpty := 0
	for i := range rs {
		rs[i] = QueryResponse{Answer: randomAnswer(r), Stats: randomStats(t, r)}
		if len(rs[i].Answer) > 0 {
			nonEmpty++
		}
	}
	buf := appendBatchResponse(nil, rs)
	if allocs := testing.AllocsPerRun(100, func() { buf = appendBatchResponse(buf[:0], rs) }); allocs != 0 {
		t.Errorf("encoding a 32-result batch into a reused buffer allocates %.0f times, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		v := BatchResponse{Results: make([]QueryResponse, 0, len(rs))}
		if err := decodeBatchResponse(buf, &v); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(1 + nonEmpty); allocs > limit {
		t.Errorf("decoding a 32-result batch allocates %.0f times, want ≤ %.0f (1 + %d non-empty answers)", allocs, limit, nonEmpty)
	}
}
