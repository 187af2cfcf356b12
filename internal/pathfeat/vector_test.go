package pathfeat

import (
	"math/rand"
	"testing"
)

// vecDominates is the filtering condition over vectors: every (ID, count)
// of want appears in have with at least that count.
func vecDominates(have, want Vector) bool {
	j := 0
	for _, fc := range want {
		for j < len(have) && have[j].ID < fc.ID {
			j++
		}
		if j >= len(have) || have[j].ID != fc.ID || have[j].Count < fc.Count {
			return false
		}
	}
	return true
}

// TestVectorOfMatchesCounts: without collisions VectorOf is a lossless
// change of representation — one entry per key, sorted by strictly
// ascending ID, carrying the key's count — and the vector hash equals the
// map hash, which is what lets the router compute backend routing hashes
// from Counts alone.
func TestVectorOfMatchesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		c := SimplePaths(randomGraph(r, 2+r.Intn(12), 1+r.Intn(4), 0.3), 4)
		vec := VectorOf(c)
		if len(vec) != len(c) {
			t.Fatalf("vector has %d entries for %d keys", len(vec), len(c))
		}
		byID := make(map[uint64]int32, len(c))
		for k, n := range c {
			byID[keyBytesHash(k)] = n
		}
		for j, fc := range vec {
			if j > 0 && vec[j-1].ID >= fc.ID {
				t.Fatalf("vector not strictly ID-sorted at %d", j)
			}
			if byID[fc.ID] != fc.Count {
				t.Fatalf("ID %x carries count %d, want %d", fc.ID, fc.Count, byID[fc.ID])
			}
		}
		if HashVector(vec) != Hash(c) {
			t.Fatalf("HashVector = %x, Hash = %x", HashVector(vec), Hash(c))
		}
	}
	if VectorOf(nil) != nil || HashVector(nil) != 0 {
		t.Error("the empty feature set has the nil vector and hash 0")
	}
}

// TestCollidingIDsSumMerge forces collisions (every key lands on one of
// three IDs) and checks the two things the design rests on: colliding
// counts are summed, and a true container still dominates its containee.
func TestCollidingIDsSumMerge(t *testing.T) {
	collide := func(k Key) uint64 { return keyBytesHash(k) % 3 }

	c := Counts{key(1): 2, key(2): 3, key(1, 2): 5, key(2, 1): 7}
	vec := VectorOfIDs(c, func(Key) uint64 { return 42 })
	if len(vec) != 1 || vec[0] != (FeatCount{ID: 42, Count: 17}) {
		t.Fatalf("all keys on one ID: got %v, want one entry of count 17", vec)
	}

	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		g := randomGraph(r, 5+r.Intn(12), 3, 0.3)
		q := extractSubgraph(r, g, 2+r.Intn(4))
		gv := VectorOfIDs(SimplePaths(g, 4), collide)
		qv := VectorOfIDs(SimplePaths(q, 4), collide)
		if len(gv) > 3 || len(qv) > 3 {
			t.Fatalf("more entries than IDs: %d, %d", len(gv), len(qv))
		}
		if !vecDominates(gv, qv) {
			t.Fatalf("trial %d: merged vector of a container lost domination over its subgraph", i)
		}
	}
}
