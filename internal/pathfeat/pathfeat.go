// Package pathfeat extracts label-path features from graphs — the feature
// class underlying GraphGrepSX, Grapes and GraphCache's own query index.
//
// A feature is the label sequence of a directed simple path (or walk) of
// up to maxLen edges. Both traversal directions of a path are counted,
// consistently on the query and dataset side, so the filtering condition
// "count_G(p) ≥ count_q(p) for all paths p of q whenever q ⊆ G" holds.
//
// For dense graphs, where simple-path enumeration explodes, Walks offers a
// dynamic-programming over-approximation that counts walks instead of
// simple paths. Walk counts dominate path counts, so substituting walks on
// the dataset side keeps the no-false-negative guarantee and only reduces
// filtering power.
package pathfeat

import (
	"slices"
	"sync/atomic"

	"graphcache/internal/graph"
)

// Key is an encoded label sequence (2 bytes per label, big endian).
type Key = string

// Counts maps each path feature to its number of occurrences.
type Counts map[Key]int32

// Encode converts a label sequence into a Key.
func Encode(labels []graph.Label) Key {
	b := make([]byte, 2*len(labels))
	for i, l := range labels {
		b[2*i] = byte(l >> 8)
		b[2*i+1] = byte(l)
	}
	return Key(b)
}

// Decode converts a Key back to its label sequence (for debugging and
// tests).
func Decode(k Key) []graph.Label {
	labels := make([]graph.Label, len(k)/2)
	for i := range labels {
		labels[i] = graph.Label(k[2*i])<<8 | graph.Label(k[2*i+1])
	}
	return labels
}

// KeyLen returns the number of labels encoded in k.
func KeyLen(k Key) int { return len(k) / 2 }

// simplePathsCalls counts SimplePaths and SimplePathVector invocations
// process-wide. The enumeration is the dominant cost of index maintenance,
// so callers (and tests) use the counter to assert that incremental
// rebuilds touch only new graphs.
var simplePathsCalls atomic.Int64

// SimplePathsCalls returns the number of simple-path enumerations
// (SimplePaths or SimplePathVector) so far.
func SimplePathsCalls() int64 { return simplePathsCalls.Load() }

// SimplePaths counts the directed simple paths of g with 0..maxLen edges.
func SimplePaths(g *graph.Graph, maxLen int) Counts {
	simplePathsCalls.Add(1)
	c := make(Counts)
	enumerate(g, maxLen, func(path []int32, key Key) {
		c[key]++
	})
	return c
}

// Locations maps each path feature to the sorted set of vertices covered
// by at least one of its occurrences — Grapes' location index.
type Locations map[Key][]int32

// SimplePathsWithLocations counts directed simple paths and records the
// vertices their occurrences cover.
//
// Location sets are deduplicated with sorted slices instead of per-key
// hash sets: occurrences append their vertices to a per-key buffer that is
// sorted and compacted whenever it doubles past its distinct size, so the
// amortised cost per occurrence is O(log) comparisons and the only
// allocations are the buffers themselves — the dominant cost of
// Grapes-style location indexing used to be the map[int32]struct{} churn
// here.
func SimplePathsWithLocations(g *graph.Graph, maxLen int) (Counts, Locations) {
	c := make(Counts)
	bufs := make(map[Key]*locBuf)
	enumerate(g, maxLen, func(path []int32, key Key) {
		c[key]++
		b := bufs[key]
		if b == nil {
			b = &locBuf{limit: 16}
			bufs[key] = b
		}
		b.add(path)
	})
	locs := make(Locations, len(bufs))
	for k, b := range bufs {
		locs[k] = b.finish()
	}
	return c, locs
}

// locBuf accumulates the vertices covered by one feature's occurrences,
// deduplicating lazily: vertices append freely and the buffer is sorted +
// compacted once it reaches limit, which then doubles relative to the
// distinct size, keeping memory proportional to the distinct set while
// sorting each element O(log) times amortised.
type locBuf struct {
	vs    []int32
	limit int
}

func (b *locBuf) add(path []int32) {
	b.vs = append(b.vs, path...)
	if len(b.vs) >= b.limit {
		b.compact()
		b.limit = 2*len(b.vs) + 16
	}
}

func (b *locBuf) compact() {
	slices.Sort(b.vs)
	b.vs = slices.Compact(b.vs)
}

func (b *locBuf) finish() []int32 {
	b.compact()
	return slices.Clip(b.vs)
}

// enumerate walks all directed simple paths with up to maxLen edges and
// invokes emit with the vertex path and its encoded label key.
func enumerate(g *graph.Graph, maxLen int, emit func(path []int32, key Key)) {
	n := g.NumVertices()
	visited := make([]bool, n)
	path := make([]int32, 0, maxLen+1)
	keyBuf := make([]byte, 0, 2*(maxLen+1))
	var rec func(v int32)
	rec = func(v int32) {
		visited[v] = true
		path = append(path, v)
		l := g.Label(v)
		keyBuf = append(keyBuf, byte(l>>8), byte(l))
		emit(path, Key(keyBuf))
		if len(path) <= maxLen {
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					rec(w)
				}
			}
		}
		visited[v] = false
		path = path[:len(path)-1]
		keyBuf = keyBuf[:len(keyBuf)-2]
	}
	for v := int32(0); int(v) < n; v++ {
		rec(v)
	}
}

// Walks counts directed walks of 0..maxLen edges by dynamic programming —
// an over-approximation of SimplePaths suitable for dense graphs.
func Walks(g *graph.Graph, maxLen int) Counts {
	n := g.NumVertices()
	total := make(Counts)
	// prev[v] holds counts of walks of the current length starting at v,
	// keyed by their label sequence.
	prev := make([]Counts, n)
	for v := int32(0); int(v) < n; v++ {
		k := Encode([]graph.Label{g.Label(v)})
		prev[v] = Counts{k: 1}
		total[k]++
	}
	// keyBuf is reused across every (vertex, feature, step) extension; the
	// only per-feature allocation left is the map key string itself.
	keyBuf := make([]byte, 0, 2*(maxLen+1))
	for step := 1; step <= maxLen; step++ {
		next := make([]Counts, n)
		for v := int32(0); int(v) < n; v++ {
			cur := make(Counts)
			l := g.Label(v)
			for _, u := range g.Neighbors(v) {
				for k, cnt := range prev[u] {
					keyBuf = append(keyBuf[:0], byte(l>>8), byte(l))
					keyBuf = append(keyBuf, k...)
					cur[Key(keyBuf)] += cnt
				}
			}
			for k, cnt := range cur {
				total[k] += cnt
			}
			next[v] = cur
		}
		prev = next
	}
	return total
}

// Hash returns a 64-bit hash of a feature-count set, independent of map
// iteration order: each (feature, count) pair is hashed on its own and the
// per-pair hashes combine with XOR. Isomorphic graphs have identical
// feature counts and therefore identical hashes — the property the sharded
// cached-query store relies on to co-locate duplicates. The empty set
// hashes to 0.
func Hash(c Counts) uint64 {
	var h uint64
	for k, n := range c {
		h ^= mixPair(keyBytesHash(k), n)
	}
	return h
}

// FNV-1a parameters (64-bit).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// keyBytesHash is FNV-1a over the key bytes: a feature's ID in a Vector,
// and the per-key half of the pair hash.
func keyBytesHash(k Key) uint64 {
	p := fnvOffset
	for i := 0; i < len(k); i++ {
		p ^= uint64(k[i])
		p *= fnvPrime
	}
	return p
}

// mixPair folds a count into a key hash and finalises with a
// splitmix64-style mixer so single-bit differences diffuse. Hash and
// HashVector combine pair hashes identically, so both representations of
// one feature-count set hash to the same value.
func mixPair(keyHash uint64, n int32) uint64 {
	p := keyHash
	p ^= uint64(uint32(n)) * 0x9e3779b97f4a7c15
	p ^= p >> 30
	p *= 0xbf58476d1ce4e5b9
	p ^= p >> 27
	p *= 0x94d049bb133111eb
	p ^= p >> 31
	return p
}

// Dominates reports whether have satisfies the filtering condition for
// want: every feature of want occurs in have at least as often.
func Dominates(have, want Counts) bool {
	for k, c := range want {
		if have[k] < c {
			return false
		}
	}
	return true
}
