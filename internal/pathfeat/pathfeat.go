// Package pathfeat extracts label-path features from graphs — the feature
// class underlying GraphGrepSX, Grapes and GraphCache's own query index.
//
// A feature is the label sequence of a directed simple path of up to
// maxLen edges. Both traversal directions of a path are counted,
// consistently on the query and dataset side, so the filtering condition
// "count_G(p) ≥ count_q(p) for all paths p of q whenever q ⊆ G" holds.
//
// Features are hashed to 64-bit IDs and kept in flat, sorted columns: a
// Vector of per-ID counts (SimplePathVector) and, for Grapes, the vertices
// each ID's occurrences cover (SimplePathLocations). SimplePaths and Counts
// are the string-keyed definition both are tested against.
//
// Columns is the posting index over many vectors that GGSX and the
// GCindex share. The IDs are uniform hashes, which it uses twice: a
// directory over their top bits finds a feature's column in one step, and
// SimplePathVector sorts a graph's path IDs by one bucket pass on the same
// bits. Its dense columns also carry bitmaps over the vector IDs, so a
// membership check there is one bit load. Build and Renumber are its only
// writers, and they write the directory and the bitmaps with the columns.
package pathfeat

import (
	"sync/atomic"

	"graphcache/internal/graph"
)

// Key is an encoded label sequence (2 bytes per label, big endian). With
// Counts and SimplePaths it is the map-based reference oracle the
// package's tests compare SimplePathVector and SimplePathLocations
// against; the engine never runs it.
type Key = string

// Counts maps each path feature to its number of occurrences: the
// reference oracle's output (see Key), never built by the engine.
type Counts map[Key]int32

// simplePathsCalls counts SimplePaths and SimplePathVector invocations
// process-wide. The enumeration is the dominant cost of index maintenance,
// so callers (and tests) use the counter to assert that incremental
// rebuilds touch only new graphs.
var simplePathsCalls atomic.Int64

// SimplePathsCalls returns the number of simple-path enumerations
// (SimplePaths or SimplePathVector) so far.
func SimplePathsCalls() int64 { return simplePathsCalls.Load() }

// SimplePaths counts the directed simple paths of g with 0..maxLen edges,
// keyed by label sequence. It is the map-based reference oracle the
// package's tests compare SimplePathVector against; the engine never runs
// it, and extracts features with SimplePathVector alone.
func SimplePaths(g *graph.Graph, maxLen int) Counts {
	simplePathsCalls.Add(1)
	c := make(Counts)
	enumerate(g, maxLen, func(path []int32, key Key) {
		c[key]++
	})
	return c
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

// FNV-1a parameters (64-bit).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// keyBytesHash is FNV-1a over the key bytes: a feature's ID in a Vector.
func keyBytesHash(k Key) uint64 {
	p := fnvOffset
	for i := 0; i < len(k); i++ {
		p ^= uint64(k[i])
		p *= fnvPrime
	}
	return p
}
