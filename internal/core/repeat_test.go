package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"testing"

	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/workload"
)

// TestDecisionsRepeat: the cache gcserved runs — Options{}, so HD
// replacement with each window pass on the query that fills the window —
// makes the same decisions every time one caller sends it the same
// stream, at any core count. Over GGSX, a ZZ and a UU stream each run
// three times, with a removal and an addition mid-stream; every run must
// give the same digests of the answers with their non-time QueryStats, of
// the EntryStats rows without timings, of the Totals counts and of the
// snapshot without its timing lines. CI runs it at -cpu 1,2,4 under
// -race.
func TestDecisionsRepeat(t *testing.T) {
	const dsSeed = 81
	for _, cat := range []string{"ZZ", "UU"} {
		t.Run(cat, func(t *testing.T) {
			qs := typeAWorkload(moleculeDataset(150, dsSeed), cat, 600, dsSeed+1)
			first, tot := repeatRun(t, qs, dsSeed)
			if tot.Evicted == 0 || tot.ExactHits+tot.ContainerHits+tot.ContaineeHits == 0 {
				t.Fatalf("the stream exercised too little of the cache: %+v", tot)
			}
			t.Logf("%d windows, %d evicted, %d exact hits, %d sub-iso tests",
				tot.WindowsProcessed, tot.Evicted, tot.ExactHits, tot.SubIsoTests)
			for rep := 2; rep <= 3; rep++ {
				if got, _ := repeatRun(t, qs, dsSeed); got != first {
					t.Errorf("run %d: digests (answers, rows, totals, snapshot)\n  %q\nrun 1\n  %q", rep, got, first)
				}
			}
		})
	}
}

// repeatRun sends qs one query at a time through a fresh Options{} cache
// over a fresh dataset, removing two graphs a third of the way in and
// adding two two thirds of the way in, and returns the four digests of
// TestDecisionsRepeat. Each digest prints whole structs with their time
// fields zeroed, so a field added later is covered without an edit here.
func repeatRun(t *testing.T, qs []workload.Query, dsSeed int64) ([4]string, Totals) {
	t.Helper()
	ds := moleculeDataset(150, dsSeed)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{})
	results := sha256.New()
	for i, q := range qs {
		var err error
		switch i {
		case len(qs) / 3:
			_, err = c.RemoveGraphs([]int32{3, int32(ds.Len() - 1)})
		case 2 * len(qs) / 3:
			_, err = c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone(), ds.Graph(7).Clone()})
		}
		if err != nil {
			t.Fatal(err)
		}
		r := c.Query(q.Graph)
		s := &r.Stats
		s.FilterMTime, s.FilterGCTime, s.VerifyTime = 0, 0, 0
		s.FeatureTime, s.ProbeTime, s.GCVerifyTime = 0, 0, 0
		fmt.Fprintf(results, "%v\n", r)
	}
	rows := sha256.New()
	for _, r := range c.EntryStats() {
		r.FilterNS, r.VerifyNS = 0, 0
		fmt.Fprintf(rows, "%v\n", r)
	}
	tot := c.Totals()
	counts := tot
	counts.FilterMTime, counts.FilterGCTime, counts.VerifyTime, counts.MaintenanceTime = 0, 0, 0, 0
	totals := sha256.New()
	fmt.Fprintf(totals, "%v", counts)
	var snap bytes.Buffer
	if err := c.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	sh := sha256.New()
	for sc := bufio.NewScanner(&snap); sc.Scan(); {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "stat" && (f[2] == "filter_ns" || f[2] == "verify_ns") {
			continue // first-execution timings
		}
		fmt.Fprintln(sh, line)
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	return [4]string{sum(results), sum(rows), sum(totals), sum(sh)}, tot
}
