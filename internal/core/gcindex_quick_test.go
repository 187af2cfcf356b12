package core

import (
	"math/rand"
	"slices"
	"testing"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/pathfeat"
)

// Property test for GCindex probe soundness: the index may return false
// positives (they are weeded out by verification) but must never miss a
// cached query related to the probe by containment — a missed container
// or containee would silently forfeit cache hits, and a missed exact
// match would break special case 1.

// randomConnGraph builds a random connected graph with v vertices, about
// e extra edges and labels drawn from [0, labels).
func randomConnGraph(r *rand.Rand, v, e, labels int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < v; i++ {
		b.AddVertex(graph.Label(r.Intn(labels)))
	}
	// Spanning tree first, then extra edges.
	for i := 1; i < v; i++ {
		b.AddEdge(int32(r.Intn(i)), int32(i))
	}
	for k := 0; k < e; k++ {
		u, w := int32(r.Intn(v)), int32(r.Intn(v))
		if u != w {
			b.AddEdge(u, w)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestQueryIndexProbeNeverMissesContainment is the filter's soundness
// property: every cached query that really contains, or is contained in,
// the probe comes back as a candidate. It runs with the real feature IDs
// and again with IDs forced to collide — every key lands on one of seven
// IDs, so vectors are sum-merged throughout — because a 64-bit collision
// is allowed to add false candidates but never to lose a true one.
func TestQueryIndexProbeNeverMissesContainment(t *testing.T) {
	t.Run("hashed IDs", func(t *testing.T) { probeNeverMissesContainment(t, pathfeat.VectorOf) })
	t.Run("colliding IDs", func(t *testing.T) {
		probeNeverMissesContainment(t, func(c pathfeat.Counts) pathfeat.Vector {
			return pathfeat.VectorOfIDs(c, func(k pathfeat.Key) uint64 {
				sum := uint64(len(k))
				for i := 0; i < len(k); i++ {
					sum += uint64(k[i])
				}
				return sum % 7
			})
		})
	})
}

func probeNeverMissesContainment(t *testing.T, vectorOf func(pathfeat.Counts) pathfeat.Vector) {
	r := rand.New(rand.NewSource(12345))
	algo := iso.VF2{}

	for trial := 0; trial < 60; trial++ {
		// A cache of 12 random queries of mixed sizes.
		entries := make(map[int64]*entry, 12)
		for s := int64(1); s <= 12; s++ {
			g := randomConnGraph(r, 3+r.Intn(8), r.Intn(3), 3)
			vec := vectorOf(pathfeat.SimplePaths(g, maxPathLen))
			entries[s] = newEntry(s, g, nil, vec, g.IsoKey())
		}
		ix := indexOf(entries)

		for probe := 0; probe < 10; probe++ {
			q := randomConnGraph(r, 3+r.Intn(8), r.Intn(3), 3)
			var sc slotScratch
			subCand, superCand := ix.candidatesInto(vectorOf(pathfeat.SimplePaths(q, maxPathLen)), nil, nil, &sc)
			subSet := toSet64(serialsOf(subCand))
			superSet := toSet64(serialsOf(superCand))

			for s, e := range entries {
				if iso.Contains(algo, q, e.g) && !subSet[s] {
					t.Fatalf("trial %d: q ⊆ cached %d but probe missed it\nq = %v\ncached = %v",
						trial, s, q, e.g)
				}
				if iso.Contains(algo, e.g, q) && !superSet[s] {
					t.Fatalf("trial %d: cached %d ⊆ q but probe missed it\nq = %v\ncached = %v",
						trial, s, q, e.g)
				}
			}
		}
	}
}

func toSet64(s []int64) map[int64]bool {
	m := make(map[int64]bool, len(s))
	for _, v := range s {
		m[v] = true
	}
	return m
}

// refCandidates is the pre-columnar, map-based GCindex probe — string-
// keyed postings, per-query domination counters, final sort — kept as the
// executable specification the columnar layout must match bit for bit.
func refCandidates(entries map[int64]*entry, qc pathfeat.Counts, maxLen int) (sub, super []int64) {
	postings := make(map[pathfeat.Key][]struct {
		serial int64
		count  int32
	})
	featureTotal := make(map[int64]int, len(entries))
	serials := make([]int64, 0, len(entries))
	for s := range entries {
		serials = append(serials, s)
	}
	slices.Sort(serials)
	for _, s := range serials {
		counts := pathfeat.SimplePaths(entries[s].g, maxLen)
		featureTotal[s] = len(counts)
		for k, c := range counts {
			postings[k] = append(postings[k], struct {
				serial int64
				count  int32
			}{s, c})
		}
	}
	if len(entries) == 0 || len(qc) == 0 {
		return nil, nil
	}
	domBy := make(map[int64]int, len(entries))
	covers := make(map[int64]int, len(entries))
	for k, c := range qc {
		for _, p := range postings[k] {
			if p.count >= c {
				domBy[p.serial]++
			}
			if p.count <= c {
				covers[p.serial]++
			}
		}
	}
	need := len(qc)
	for s, n := range domBy {
		if n == need {
			sub = append(sub, s)
		}
	}
	for s, n := range covers {
		if n == featureTotal[s] {
			super = append(super, s)
		}
	}
	slices.Sort(sub)
	slices.Sort(super)
	return sub, super
}

// TestColumnarCandidatesMatchMapBased is the old-vs-new equivalence
// property: on random caches — built from scratch and mutated through
// random applyDelta add/evict rounds, some inserting below the top serial —
// the columnar probe must return exactly the candidates the map-based
// reference computes, for every probe.
func TestColumnarCandidatesMatchMapBased(t *testing.T) {
	r := rand.New(rand.NewSource(99))

	for trial := 0; trial < 25; trial++ {
		entries := make(map[int64]*entry)
		next := int64(1)
		for ; next <= 8; next++ {
			entries[next] = entryOf(next, randomConnGraph(r, 2+r.Intn(7), r.Intn(3), 3))
		}
		ix := indexOf(entries)

		check := func(round int) {
			for probe := 0; probe < 6; probe++ {
				q := randomConnGraph(r, 2+r.Intn(7), r.Intn(3), 3)
				qc := pathfeat.SimplePaths(q, maxPathLen)
				gotSub, gotSuper := ix.candidates(qc)
				wantSub, wantSuper := refCandidates(ix.contents(), qc, maxPathLen)
				if !eq64(gotSub, wantSub) || !eq64(gotSuper, wantSuper) {
					t.Fatalf("trial %d round %d: columnar (%v,%v) != map-based (%v,%v)\nq = %v",
						trial, round, gotSub, gotSuper, wantSub, wantSuper, q)
				}
			}
		}
		check(0)

		// Random delta rounds: evict a random subset, admit a few new
		// entries (occasionally with an out-of-order serial).
		for round := 1; round <= 5; round++ {
			var removed []int64
			for _, s := range ix.serials {
				if r.Intn(3) == 0 {
					removed = append(removed, s)
				}
			}
			var added []*entry
			for i := 0; i < 1+r.Intn(3); i++ {
				s := next
				next++
				// Occasionally aim just below the cached maximum, an
				// out-of-order insert (skipped if that serial is still
				// live).
				if r.Intn(8) == 0 && len(ix.serials) > 0 {
					s = ix.serials[len(ix.serials)-1] - 1
					if ix.lookup(s) != nil || s <= 0 {
						s = next
						next++
					}
				}
				added = append(added, entryOf(s, randomConnGraph(r, 2+r.Intn(7), r.Intn(3), 3)))
			}
			ix = ix.applyDelta(added, removed)
			check(round)
		}
	}
}
