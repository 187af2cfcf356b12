package main

import (
	"slices"
	"testing"

	"graphcache"
)

// filterCounter wraps a Method and counts its Filter calls.
type filterCounter struct {
	graphcache.Method
	filters int
}

func (f *filterCounter) Filter(q *graphcache.Graph) []int32 {
	f.filters++
	return f.Method.Filter(q)
}

// TestRunBareFiltersOncePerQuery pins the bare timings of the local
// mode and of -compare to one Method-M filter per query: runBare counts
// the candidates it verifies rather than filtering a second time, and
// its answers are graphcache.Answer's.
func TestRunBareFiltersOncePerQuery(t *testing.T) {
	ds := graphcache.AIDSLike(graphcache.DefaultAIDS().Scaled(0.002, 1), 5)
	m := graphcache.NewGGSX(ds, graphcache.GGSXOptions{})
	cfg, err := graphcache.TypeACategory("ZZ", 1.4, []int{4, 8, 12}, 30)
	if err != nil {
		t.Fatal(err)
	}
	var queries []*graphcache.Graph
	wantTests := 0
	for _, q := range graphcache.TypeA(ds, cfg, 6) {
		queries = append(queries, q.Graph)
		wantTests += len(m.Filter(q.Graph))
	}

	fc := &filterCounter{Method: m}
	seen := 0
	_, tests := runBare(fc, queries, func(i int, ans []int32) {
		seen++
		if want := graphcache.Answer(m, queries[i]); !slices.Equal(ans, want) {
			t.Errorf("query %d: answer %v, want %v", i, ans, want)
		}
	})
	if fc.filters != len(queries) {
		t.Errorf("%d queries filtered %d times, want once each", len(queries), fc.filters)
	}
	if seen != len(queries) {
		t.Errorf("%d of %d answers handed on", seen, len(queries))
	}
	if tests != wantTests {
		t.Errorf("counted %d sub-iso tests, want %d (the candidates filtered)", tests, wantTests)
	}
	if wantTests == 0 {
		t.Fatal("the workload filtered no candidates; the test pins nothing")
	}
}
