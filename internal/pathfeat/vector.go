package pathfeat

import (
	"cmp"
	"math/bits"
	"slices"

	"graphcache/internal/graph"
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

// SimplePathVector returns VectorOf(SimplePaths(g, maxLen)) without building
// the Counts in between: FNV-1a extends by prefix, so each step of the path
// enumeration derives the path's ID from its parent's with two multiplies.
// The IDs of all occurrences land in the first half of one slice, sized
// beforehand, are sorted into its second half (sortIDs) and
// run-length-counted into the vector: at most four allocations whatever
// the graph, none per path. It counts as a SimplePaths invocation.
func SimplePathVector(g *graph.Graph, maxLen int) Vector {
	simplePathsCalls.Add(1)
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	w := pathWalker{g: g, visited: make([]bool, n), ids: make([]uint64, 0, 2*pathBound(g, maxLen))}
	for v := int32(0); int(v) < n; v++ {
		w.walk(v, fnvOffset, maxLen)
	}
	ids := sortIDs(w.ids)
	distinct := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			distinct++
		}
	}
	vec := make(Vector, 0, distinct)
	for _, id := range ids {
		if last := len(vec) - 1; last >= 0 && vec[last].ID == id {
			vec[last].Count++
		} else {
			vec = append(vec, FeatCount{ID: id, Count: 1})
		}
	}
	return vec
}

// maxBucketBits caps sortIDs' buckets at 2^maxBucketBits, 4 KB of counts.
const maxBucketBits = 10

// sortIDs returns ids sorted, written into the spare capacity behind them
// (grown if it is short, which pathBound's presize never leaves it). The
// IDs are FNV hashes, uniform over their 64 bits, so one counting pass
// scatters them by their top bits into about one bucket per two IDs, and
// each bucket, a handful of IDs, is then sorted on its own: in place by
// insertion, or by slices.Sort when repeated paths made it long. The
// bucket counts live on the stack.
func sortIDs(ids []uint64) []uint64 {
	m := len(ids)
	if cap(ids) < 2*m {
		ids = slices.Grow(ids, m)
	}
	out := ids[m : 2*m]
	top := min(max(bits.Len(uint(m))-1, 1), maxBucketBits)
	shift, nb := 64-top, 1<<top
	var ends [1<<maxBucketBits + 1]uint32 // bucket b's size in ends[b+1], then its start in ends[b], then its end
	for _, id := range ids {
		ends[id>>shift+1]++
	}
	for b := 1; b <= nb; b++ {
		ends[b] += ends[b-1]
	}
	for _, id := range ids {
		b := id >> shift
		out[ends[b]] = id
		ends[b]++
	}
	lo := uint32(0)
	for _, hi := range ends[:nb] {
		bucket := out[lo:hi]
		if len(bucket) > 16 {
			slices.Sort(bucket)
		} else {
			for i := 1; i < len(bucket); i++ {
				for j, x := i, bucket[i]; j > 0 && bucket[j-1] > x; j-- {
					bucket[j], bucket[j-1] = bucket[j-1], x
				}
			}
		}
		lo = hi
	}
	return out
}

// maxPresize caps pathBound: 8 MB of IDs, and as much again for their
// sort. A graph with more paths than that grows its slice by appending.
const maxPresize = 1 << 20

// pathBound returns an upper bound, capped at maxPresize, on the number of
// simple paths of g with 0..maxLen edges, in O(maxLen · edges): it counts
// walks level by level, leaving out of each vertex's onward walks the
// fewest any one neighbour offers — a path never steps back to the vertex
// it came from, whichever that was.
func pathBound(g *graph.Graph, maxLen int) int {
	n := g.NumVertices()
	var small [64]int // a query-sized graph's counts stay on the stack
	cur := small[:]   // onward walks of the current length, per vertex
	if 2*n > len(small) {
		cur = make([]int, 2*n)
	}
	cur, next := cur[:n], cur[n:2*n]
	for v := range cur {
		cur[v] = 1
	}
	total := n
	for l := 0; l < maxLen && total < maxPresize; l++ {
		for v := range next {
			sum, least := 0, 0
			for i, u := range g.Neighbors(int32(v)) {
				sum += cur[u]
				if i == 0 || cur[u] < least {
					least = cur[u]
				}
			}
			total += sum // walks of l+1 edges that start at v
			next[v] = sum - least
		}
		cur, next = next, cur
	}
	return min(total, maxPresize)
}

// pathWalker is the enumeration state of SimplePathVector and
// SimplePathLocations.
type pathWalker struct {
	g       *graph.Graph
	visited []bool   // the vertices of the path being extended
	ids     []uint64 // one ID per path (per path of ≥ 1 edge in walkLocations)
	// walkLocations only: the path being extended, and the vertices of
	// the path ids[i] names, verts[starts[i]:starts[i+1]].
	path   []int32
	starts []uint32
	verts  []int32
}

// extend returns the ID of the path whose prefix has ID h and whose last
// vertex is labelled l: FNV-1a over the label's two key bytes.
func extend(h uint64, l graph.Label) uint64 {
	h = (h ^ uint64(l>>8)) * fnvPrime
	return (h ^ uint64(l&0xff)) * fnvPrime
}

// walk records the ID of the path ending in v, whose prefix hashes to h,
// and of every simple extension by up to left more edges.
func (w *pathWalker) walk(v int32, h uint64, left int) {
	h = extend(h, w.g.Label(v))
	w.ids = append(w.ids, h)
	if left <= 0 {
		return
	}
	w.visited[v] = true
	for _, u := range w.g.Neighbors(v) {
		if !w.visited[u] {
			w.walk(u, h, left-1)
		}
	}
	w.visited[v] = false
}

// walkLocations is walk for SimplePathLocations: it records the ID and the
// vertices of every path of ≥ 1 edge.
func (w *pathWalker) walkLocations(v int32, h uint64, left int) {
	h = extend(h, w.g.Label(v))
	w.path = append(w.path, v)
	if len(w.path) > 1 {
		w.ids = append(w.ids, h)
		w.starts = append(w.starts, uint32(len(w.verts)))
		w.verts = append(w.verts, w.path...)
	}
	if left > 0 {
		w.visited[v] = true
		for _, u := range w.g.Neighbors(v) {
			if !w.visited[u] {
				w.walkLocations(u, h, left-1)
			}
		}
		w.visited[v] = false
	}
	w.path = w.path[:len(w.path)-1]
}

// PathLocations is a graph's location index, Grapes' verification aid, in
// three flat columns: for each ID of the graph's simple paths of at least
// one edge, ascending in IDs, the sorted vertices its occurrences cover.
// ID k's vertices are Verts[Ends[k-1]:Ends[k]] (from 0 for k = 0). IDs are
// SimplePathVector's, so paths whose IDs collide share one vertex set, the
// union of theirs.
type PathLocations struct {
	IDs   []uint64
	Ends  []uint32
	Verts []int32
}

// Vertices returns the vertices of ID k.
func (l *PathLocations) Vertices(k int) []int32 {
	var lo uint32
	if k > 0 {
		lo = l.Ends[k-1]
	}
	return l.Verts[lo:l.Ends[k]]
}

// SimplePathLocations returns the location index of g's simple paths of
// 1..maxLen edges. It enumerates the paths as SimplePathVector does,
// recording each path's ID and vertices, then groups the paths by ID — a
// counting sort on the rank of their ID among the distinct ones — and
// gives each ID the union of its paths' vertices, deduplicated by a
// per-vertex stamp and then sorted. The cost follows the occurrences.
func SimplePathLocations(g *graph.Graph, maxLen int) PathLocations {
	n := g.NumVertices()
	if n == 0 || maxLen < 1 {
		return PathLocations{}
	}
	w := pathWalker{
		g:       g,
		visited: make([]bool, n),
		ids:     make([]uint64, 0, pathBound(g, maxLen)),
		path:    make([]int32, 0, maxLen+1),
	}
	for v := int32(0); int(v) < n; v++ {
		w.walkLocations(v, fnvOffset, maxLen)
	}
	if len(w.ids) == 0 {
		return PathLocations{}
	}
	w.starts = append(w.starts, uint32(len(w.verts)))
	ids := slices.Clone(w.ids)
	slices.Sort(ids)
	ids = slices.Clip(slices.Compact(ids))
	// ends[r] ends, in byID, the positions of the paths whose ID has rank r.
	rank := make([]uint32, len(w.ids))
	ends := make([]uint32, len(ids))
	for i, id := range w.ids {
		r, _ := slices.BinarySearch(ids, id)
		rank[i] = uint32(r)
		ends[r]++
	}
	for r := 1; r < len(ends); r++ {
		ends[r] += ends[r-1]
	}
	byID := make([]uint32, len(w.ids))
	for i := len(rank) - 1; i >= 0; i-- {
		ends[rank[i]]--
		byID[ends[rank[i]]] = uint32(i)
	}
	// ends[r] now starts rank r's paths; it becomes the end of its vertices.
	stamp := make([]uint32, n) // 1 + the rank that last took the vertex
	verts := make([]int32, 0, len(w.verts))
	for r := range ends {
		from, hi := len(verts), uint32(len(byID))
		if r+1 < len(ends) {
			hi = ends[r+1]
		}
		for _, i := range byID[ends[r]:hi] {
			for _, v := range w.verts[w.starts[i]:w.starts[i+1]] {
				if stamp[v] != uint32(r+1) {
					stamp[v] = uint32(r + 1)
					verts = append(verts, v)
				}
			}
		}
		slices.Sort(verts[from:])
		ends[r] = uint32(len(verts))
	}
	return PathLocations{IDs: ids, Ends: ends, Verts: slices.Clone(verts)}
}
