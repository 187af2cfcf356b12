package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/pathfeat"
)

// BenchmarkCandidates measures the GCindex probe alone — the hottest loop
// in the system, run once per open query. The columnar layout's
// contract is 0 allocs/op at steady state: the probe is a counted merge
// over pooled per-slot counters, emitting into reused candidate buffers,
// with no maps and no sort. Run with -benchmem; a nonzero allocs/op here
// is a regression.
func BenchmarkCandidates(b *testing.B) {
	for _, size := range []int{64, 256} {
		b.Run(fmt.Sprintf("cache=%d", size), func(b *testing.B) {
			r := rand.New(rand.NewSource(17))
			entries := make(map[int64]*entry, size)
			for s := int64(1); s <= int64(size); s++ {
				entries[s] = entryOf(s, randomConnGraph(r, 4+r.Intn(8), r.Intn(4), 4))
			}
			ix := indexOf(entries)

			probes := make([]pathfeat.Vector, 32)
			for i := range probes {
				q := randomConnGraph(r, 4+r.Intn(8), r.Intn(4), 4)
				probes[i] = pathfeat.VectorOf(pathfeat.SimplePaths(q, maxPathLen))
			}

			var sc slotScratch
			var sub, super []*entry
			// Warm the scratch and buffers so the timed loop is steady state.
			sub, super = ix.candidatesInto(probes[0], sub[:0], super[:0], &sc)

			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			for b.Loop() {
				sub, super = ix.candidatesInto(probes[i%len(probes)], sub[:0], super[:0], &sc)
				i++
			}
			_, _ = sub, super
		})
	}
}
