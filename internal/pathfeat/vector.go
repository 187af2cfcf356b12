package pathfeat

import (
	"cmp"
	"slices"
)

// FeatCount is one entry of a feature vector: a feature ID and the number
// of occurrences counted under it.
type FeatCount struct {
	ID    uint64
	Count int32
}

// Vector is the columnar representation of a feature-count set: FeatCounts
// sorted by ascending feature ID, one per distinct ID. A feature's ID is
// the 64-bit FNV-1a hash of its Key, so a vector needs no vocabulary: any
// two vectors are comparable, whoever built them, and nothing has to
// remember the features seen so far. Probes over vectors are integer
// comparisons on a dense array — no string hashing, no map iteration.
// Vectors are immutable once built and safe to share.
//
// Two distinct keys can hash to one ID. Their counts are then summed into
// one entry, on every vector alike, which keeps the filtering condition
// one-sided the way it must be: if q ⊆ G then count_G(p) ≥ count_q(p) for
// every path p, hence Σ count_G ≥ Σ count_q over any set of paths sharing
// an ID, so a true container still dominates and a true containee is
// still covered. A collision can only let a false candidate through, and
// candidates are confirmed by a real sub-iso test.
type Vector []FeatCount

// VectorOf returns the feature vector of c.
func VectorOf(c Counts) Vector { return VectorOfIDs(c, keyBytesHash) }

// VectorOfIDs is VectorOf under an arbitrary key-to-ID function. Tests
// pass a colliding one to exercise the sum-merge; everything else goes
// through VectorOf.
func VectorOfIDs(c Counts, id func(Key) uint64) Vector {
	if len(c) == 0 {
		return nil
	}
	vec := make(Vector, 0, len(c))
	for k, n := range c {
		vec = append(vec, FeatCount{ID: id(k), Count: n})
	}
	slices.SortFunc(vec, func(a, b FeatCount) int { return cmp.Compare(a.ID, b.ID) })
	out := vec[:1]
	for _, fc := range vec[1:] {
		if last := &out[len(out)-1]; last.ID == fc.ID {
			last.Count += fc.Count
		} else {
			out = append(out, fc)
		}
	}
	return out
}

// HashVector returns the order-independent hash of a feature vector: the
// value Hash computes over the Counts it was built from (as long as no two
// of its keys collide). Isomorphic graphs have identical vectors and
// therefore identical hashes — the property the sharded cached-query store
// relies on to co-locate duplicates.
func HashVector(vec Vector) uint64 {
	var h uint64
	for _, fc := range vec {
		h ^= mixPair(fc.ID, fc.Count)
	}
	return h
}
