package ggsx

import (
	"bytes"
	"math/rand"
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

// TestSnapshotLoadReindexesOnlyTheDelta restores a snapshot of a mutated
// cache into a fresh cache over the pristine base dataset. The load
// re-asserts every graph into the index (core's resync), and the index
// must come out equal to a fresh build over the restored dataset
// (equalsFreshBuild), having extracted vectors only for what the delta
// brought: the cached entries' own and one per graph whose postings came.
// The graphs whose postings went were in the main columns, so they cost a
// tombstone bit each and no extraction.
func TestSnapshotLoadReindexesOnlyTheDelta(t *testing.T) {
	opts := core.Options{CacheSize: 15, WindowSize: 5}
	base := func() *dataset.Dataset { return gen.DefaultAIDS().Scaled(0.002, 1).Generate(61) }
	ds := base()
	c := core.New(New(ds, Options{}), opts)
	r := rand.New(rand.NewSource(62))
	for range 40 {
		c.Query(subgraphOf(r, ds.Graph(int32(r.Intn(ds.Len()))), 3+r.Intn(4)))
	}

	// The delta: two additions, one of them removed again (a hole above
	// the base, with nothing indexed), two base graphs removed and one
	// base graph edited.
	res, err := c.AddGraphs([]*graph.Graph{randomGraph(r, 9, 3, 0.3), randomGraph(r, 7, 3, 0.3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveGraphs([]int32{3, 7, res.AddedIDs[1]}); err != nil {
		t.Fatal(err)
	}
	var del dataset.EdgeEdit
	ds.Graph(5).Edges(func(u, v int32) { del = dataset.EdgeEdit{U: u, V: v, Del: true} })
	if _, err := c.EditGraphEdges(5, []dataset.EdgeEdit{del}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	ds2 := base()
	idx := New(ds2, Options{})
	c2 := core.New(idx, opts)
	before := pathfeat.SimplePathsCalls()
	if err := c2.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	const came = 2 // the live addition and 5's new content
	entries := len(c2.CachedSerials())
	if got, want := pathfeat.SimplePathsCalls()-before, int64(entries+came); got != want {
		t.Errorf("the load extracted %d vectors, want %d: %d entries, %d graphs whose postings came",
			got, want, entries, came)
	}
	if diff := equalsFreshBuild(idx, testQueries(r, ds2, 20, 3)); diff != "" {
		t.Errorf("restored index: %s", diff)
	}
	for id, g := range ds2.Graphs() {
		if idx.held[id].g != g {
			t.Errorf("graph %d: the index holds another graph than the dataset's", id)
		}
	}
}
