package method

import (
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/workload"
)

// BenchmarkSIVerifyUU is bare VF2+ over an AIDS-like dataset of 2,400
// graphs (count factor 0.06), one operation per uniform (UU) query of
// 4–20 edges: the query tested against every graph, as Method M verifies
// a query no cache helps. The queries cycle, so ns/op is the mean cost of
// a query.
func BenchmarkSIVerifyUU(b *testing.B) {
	ds := gen.DefaultAIDS().Scaled(0.06, 1).Generate(20170321)
	cfg, err := workload.TypeACategory("UU", 1.4, []int{4, 8, 12, 16, 20}, 100)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.TypeA(ds, cfg, 1)
	m := NewVF2Plus(ds)
	ids := ds.AllIDs()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		q := queries[i%len(queries)].Graph
		for _, id := range ids {
			m.Verify(q, id)
		}
		i++
	}
}
