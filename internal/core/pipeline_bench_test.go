package core

import (
	"testing"
	"time"

	"graphcache/internal/ggsx"
	"graphcache/internal/workload"
)

// BenchmarkPipelineStages times the query pipeline stage by stage on the
// fleet benchmark's world: GGSX over its 800 AIDS-like graphs (the
// ×0.02 scale of gen.DefaultAIDS, world seed 20170321), a cache with
// Options{} and one caller. Each op is a fresh cache warmed by 1,000
// queries of a fixed Type-A stream and then timed over the stream's next
// 4,000. Besides ns/op it reports µs per measured query: the wall time,
// each stage's QueryStats time (feature extraction, the lookup and probe,
// the whole GC stage, Method M's filter, verification) and the window
// passes' maintenance.
// Compare runs of the same -benchtime, alternating old and new trees.
func BenchmarkPipelineStages(b *testing.B) {
	const warm, measured = 1000, 4000
	ds := moleculeDataset(800, 20170321)
	m := ggsx.New(ds, ggsx.Options{})
	for _, stream := range []string{"ZZ", "UU"} {
		cfg, err := workload.TypeACategory(stream, 1.4, []int{4, 8, 12, 16, 20}, warm+measured)
		if err != nil {
			b.Fatal(err)
		}
		qs := workload.TypeA(ds, cfg, 1)
		b.Run(stream, func(b *testing.B) {
			var wall, feature, probe, filterGC, filterM, verify, maint time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New(m, Options{})
				for _, q := range qs[:warm] {
					c.Query(q.Graph)
				}
				c.Flush()
				before := c.Totals().MaintenanceTime
				b.StartTimer()
				start := time.Now()
				for _, q := range qs[warm:] {
					st := c.Query(q.Graph).Stats
					feature += st.FeatureTime
					probe += st.ProbeTime
					filterGC += st.FilterGCTime
					filterM += st.FilterMTime
					verify += st.VerifyTime
				}
				c.Flush()
				wall += time.Since(start)
				maint += c.Totals().MaintenanceTime - before
			}
			perQuery := func(d time.Duration, unit string) {
				b.ReportMetric(d.Seconds()*1e6/float64(b.N*measured), unit)
			}
			perQuery(wall, "wall-µs/query")
			perQuery(feature, "feature-µs/query")
			perQuery(probe, "probe-µs/query")
			perQuery(filterGC, "filterGC-µs/query")
			perQuery(filterM, "filterM-µs/query")
			perQuery(verify, "verify-µs/query")
			perQuery(maint, "maint-µs/query")
		})
	}
}
