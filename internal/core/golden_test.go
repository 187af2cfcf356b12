package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/grapes"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

// pipelineGolden pins, per (method, stream, drive), the SHA-256 digests
// (first 16 hex digits) of the run's answers with every non-time
// QueryStats field, of the final EntryStats rows without their timings,
// and of Totals' counts.
var pipelineGolden = map[string][3]string{
	"ggsx/ZZ/seq":        {"8b1c78c1b19d1e3a", "609b52607252e959", "7f7000a34393541e"},
	"ggsx/ZZ/batch7":     {"641ba9850824ced7", "9c8d1e4e19d07198", "bda767601a063de7"},
	"ggsx/B20/seq":       {"49ec8e4f36aeba3c", "79ce9076c160d66c", "ef6b6e1f7406b9d9"},
	"ggsx/B20/batch7":    {"1e7d10d5e0f43f01", "0001a2fa5a1331cb", "17bf65e58e3133ac"},
	"vf2plus/ZZ/seq":     {"90f70e4bcdfbc0fe", "c87b4677661f1809", "8b387b945d858b8a"},
	"vf2plus/ZZ/batch7":  {"7cbec11571d9887e", "6f5df2bed7c9062c", "144cc6ebe2d9e3ee"},
	"vf2plus/B20/seq":    {"d6a532d9c7d622ec", "5c78ca9869d087f1", "136b72bcdba94396"},
	"vf2plus/B20/batch7": {"dcef3d3f598c6c75", "d8af39c80cb0c4b4", "7e3e7ddd5f36c3e5"},
	"grapes6/ZZ/seq":     {"8b1c78c1b19d1e3a", "609b52607252e959", "7f7000a34393541e"},
	"grapes6/ZZ/batch7":  {"641ba9850824ced7", "9c8d1e4e19d07198", "bda767601a063de7"},
	"grapes6/B20/seq":    {"49ec8e4f36aeba3c", "79ce9076c160d66c", "ef6b6e1f7406b9d9"},
	"grapes6/B20/batch7": {"1e7d10d5e0f43f01", "0001a2fa5a1331cb", "17bf65e58e3133ac"},
	"super/ZZ/seq":       {"dd1251f0bbab1d88", "c643b0f3f0b7b91f", "236353c3069d4aa3"},
	"super/ZZ/batch7":    {"3c62e2edeaa0f874", "a98a38003c0e9717", "2dcf198d7dbaaf02"},
	"super/B20/seq":      {"45e9a157c68b1a71", "a57568c723f27f97", "523dd4d22fef791c"},
	"super/B20/batch7":   {"7e31e7b5d1a663f3", "b1c71fc3f05546cb", "67a6eef729f9e695"},
}

// TestPipelineGolden pins the pipeline's decisions: a seeded Type-A ZZ
// stream and a Type-B 20 % stream, each driven query by query and in
// batches of seven, at VerifyConcurrency 1 and 4, over GGSX, VF2+, Grapes
// with six verification threads (the BatchVerifier path) and supergraph
// VF2 (the inverted Eq. 1/2 roles), with a removal and an addition
// mid-stream. (The supergraph B20 stream draws no no-answer query: the
// pools' no-answer test is a subgraph one.) Every answer, count, credit, statistics row and total must
// come out as pinned; only timings may move. A change that alters a
// caching decision regenerates the table and says which rows moved.
func TestPipelineGolden(t *testing.T) {
	const dsSeed = 71
	newDS := func() *dataset.Dataset { return moleculeDataset(60, dsSeed) }
	methods := []struct {
		name  string
		sizes []int
		mk    func(ds *dataset.Dataset) method.Method
	}{
		{"ggsx", []int{4, 8, 12}, func(ds *dataset.Dataset) method.Method { return ggsx.New(ds, ggsx.Options{}) }},
		{"vf2plus", []int{4, 8, 12}, func(ds *dataset.Dataset) method.Method { return method.NewVF2Plus(ds) }},
		{"grapes6", []int{4, 8, 12}, func(ds *dataset.Dataset) method.Method { return grapes.New(ds, grapes.Options{Threads: 6}) }},
		{"super", []int{20, 30, 40}, func(ds *dataset.Dataset) method.Method { return method.NewSuperSI(ds, iso.VF2{}) }},
	}
	const nQueries = 140
	var seen Totals // what the streams exercised, summed over every run
	for _, m := range methods {
		pristine := newDS()
		cfg, err := workload.TypeACategory("ZZ", 1.4, m.sizes, nQueries)
		if err != nil {
			t.Fatal(err)
		}
		pools := workload.BuildTypeBPools(pristine, workload.TypeBConfig{
			AnswerPoolPerSize: 40, NoAnswerPoolPerSize: 10, Sizes: m.sizes, MaxRelabelAttempts: 40,
		}, dsSeed+1)
		streams := []struct {
			name string
			qs   []workload.Query
		}{
			{"ZZ", workload.TypeA(pristine, cfg, dsSeed+2)},
			{"B20", pools.Workload(workload.TypeBWorkloadConfig{NoAnswerProb: 0.2, NumQueries: nQueries}, dsSeed+3)},
		}
		for _, s := range streams {
			if len(s.qs) != nQueries {
				t.Fatalf("%s/%s: %d queries, want %d", m.name, s.name, len(s.qs), nQueries)
			}
			for _, batch := range []int{1, 7} {
				drive := "seq"
				if batch > 1 {
					drive = fmt.Sprintf("batch%d", batch)
				}
				name := m.name + "/" + s.name + "/" + drive
				t.Run(name, func(t *testing.T) {
					want, ok := pipelineGolden[name]
					if !ok {
						t.Fatalf("no golden row for %s", name)
					}
					for _, vc := range []int{1, 4} {
						got, to := goldenRun(t, m.mk, newDS, s.qs, batch, vc)
						if got != want {
							t.Errorf("VerifyConcurrency %d: digests\n  %q\nwant\n  %q", vc, got, want)
						}
						seen.ExactHits += to.ExactHits
						seen.EmptyShortcuts += to.EmptyShortcuts
						seen.ContainerHits += to.ContainerHits
						seen.ContaineeHits += to.ContaineeHits
						seen.Evicted += to.Evicted
					}
				})
			}
		}
	}
	if seen.ExactHits == 0 || seen.EmptyShortcuts == 0 || seen.ContainerHits == 0 || seen.ContaineeHits == 0 || seen.Evicted == 0 {
		t.Errorf("the streams exercised too little of the pipeline: %+v", seen)
	}
}

// goldenRun drives qs through a fresh cache over a fresh dataset in runs
// of batch queries, removing two graphs before query 49 and adding two
// before query 98, and returns the three digests of TestPipelineGolden.
func goldenRun(t *testing.T, mk func(*dataset.Dataset) method.Method, newDS func() *dataset.Dataset,
	qs []workload.Query, batch, vc int) ([3]string, Totals) {
	t.Helper()
	ds := newDS()
	c := New(mk(ds), Options{CacheSize: 20, WindowSize: 5, VerifyConcurrency: vc})
	results := sha256.New()
	for i := 0; i < len(qs); i += batch {
		var err error
		switch i {
		case 49:
			_, err = c.RemoveGraphs([]int32{3, int32(ds.Len() - 1)})
		case 98:
			_, err = c.AddGraphs([]*graph.Graph{ds.Graph(0).Clone(), ds.Graph(7).Clone()})
		}
		if err != nil {
			t.Fatal(err)
		}
		run := make([]*graph.Graph, 0, batch)
		for _, q := range qs[i:min(i+batch, len(qs))] {
			run = append(run, q.Graph)
		}
		for _, r := range c.QueryBatch(run) {
			s := r.Stats
			fmt.Fprintln(results, r.Answer, s.Serial, s.CandidatesM, s.CandidatesFinal, s.SubIsoTests,
				s.GCVerifications, s.DirectAnswers, s.Containers, s.Containees, s.ExactHit,
				s.EmptyShortcut, s.AnswerSize, math.Float64bits(s.Credit))
		}
	}
	c.Flush()
	rows := sha256.New()
	for _, r := range c.EntryStats() {
		fmt.Fprintln(rows, r.Serial, r.Nodes, r.Edges, r.Labels, r.OwnCS, math.Float64bits(r.OwnCost),
			r.Hits, r.SpecialHits, r.LastHit, r.CSReduction, math.Float64bits(r.TimeSaving))
	}
	tot := sha256.New()
	to := c.Totals()
	fmt.Fprintln(tot, to.Queries, to.Batches, to.SubIsoTests, to.GCVerifications, to.ExactHits,
		to.EmptyShortcuts, to.ContainerHits, to.ContaineeHits, to.WindowsProcessed, to.Admitted,
		to.Evicted, to.RejectedByAdmission, to.Mutations)
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	return [3]string{sum(results), sum(rows), sum(tot)}, to
}
