package core

import (
	"runtime"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
)

// ProbeBenchResult summarises a candidate-probe microbenchmark over the
// cache's current contents — the numbers gcbench records in
// BENCH_probe.json so the probe path's trajectory is tracked across
// versions.
type ProbeBenchResult struct {
	CachedQueries  int     `json:"cached_queries"`
	Shards         int     `json:"shards"`
	IndexFeatures  int     `json:"index_features"` // feature columns across all shards' GCindex
	Probes         int     `json:"probes"`
	NsPerProbe     float64 `json:"ns_per_probe"`
	AllocsPerProbe float64 `json:"allocs_per_probe"`
	BytesPerProbe  float64 `json:"bytes_per_probe"`
	CandidatesAvg  float64 `json:"candidates_avg"` // sub+super candidates per probe
}

// BenchProbe measures the GCindex candidate probe against the cache's
// current contents: every query in qs is probed across all shards iters
// times through the pooled steady-state path (candidatesInto with reused
// scratch), and allocation counts come from runtime.MemStats deltas. One
// probe = one query against the whole sharded index. Intended for
// benchmarking tools; it does not mutate the cache.
func (c *Cache) BenchProbe(qs []*graph.Graph, iters int) ProbeBenchResult {
	res := ProbeBenchResult{
		CachedQueries: len(c.CachedSerials()),
		Shards:        len(c.shards),
	}
	if len(qs) == 0 || iters <= 0 {
		return res
	}
	vecs := make([]pathfeat.Vector, len(qs))
	for i, q := range qs {
		vecs[i] = pathfeat.SimplePathVector(q, c.opts.MaxPathLen)
	}
	ixs := make([]*queryIndex, len(c.shards))
	for i, sh := range c.shards {
		ixs[i] = sh.index.Load()
		res.IndexFeatures += len(ixs[i].cols)
	}
	var (
		sc         slotScratch
		sub, super []int64
		candidates int64
	)
	// Warm-up pass over every probe vector, so candidate-buffer and
	// scratch growth happens before the measured region — the steady
	// state being measured is genuinely allocation-free.
	for _, qv := range vecs {
		for _, ix := range ixs {
			sub, super = ix.candidatesInto(qv, sub[:0], super[:0], &sc)
		}
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, qv := range vecs {
			for _, ix := range ixs {
				sub, super = ix.candidatesInto(qv, sub[:0], super[:0], &sc)
				candidates += int64(len(sub) + len(super))
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	res.Probes = iters * len(qs)
	n := float64(res.Probes)
	res.NsPerProbe = float64(elapsed.Nanoseconds()) / n
	res.AllocsPerProbe = float64(m1.Mallocs-m0.Mallocs) / n
	res.BytesPerProbe = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	res.CandidatesAvg = float64(candidates) / n
	return res
}
