package pathfeat

import (
	"fmt"
	"math/bits"
	"slices"
)

// Columns is a posting index over feature vectors in four flat,
// pointer-free arrays. Column k belongs to feature Feats[k] — Feats
// ascends — and occupies positions Ends[k-1] (0 for k = 0) up to Ends[k]
// of IDs and Counts: the IDs of the vectors holding the feature,
// ascending, and the feature's count in each. No column is empty.
//
// Two lookup aids are derived from those arrays and laid out in one more
// allocation. A directory over the top bits of the feature IDs, about one
// entry per 8 columns, takes Find to a feature's column in one step: the
// IDs are uniform hashes, so a bucket holds a handful of columns. And a
// dense column — one holding at least 1/32 of the IDs below the highest
// one, and at least minDense — also carries a bitmap over those IDs
// (Roaring's split into array
// and bitmap containers, with the column as the container), so a check
// that needs its membership alone is one bit load (Bitmap). The dense
// columns are listed in ascending order, and a bitmap costs at most half
// of its column's postings.
//
// A Columns value is written once. Build lays out a set of vectors, and
// Renumber writes one from another, renumbering or dropping its postings
// and merging a second one in, in a single forward pass; each writes new
// arrays that no reader holds yet, directory and bitmaps included, and
// nothing writes them afterwards. GGSX keys its postings by dataset-graph
// ID in two values: a main one that Renumber rebuilds when it compacts,
// and a small delta that it rebuilds on every mutation, so a mutation
// copies the delta alone. The GCindex keys them by slot, and each of its
// generations is one Renumber.
type Columns struct {
	Feats  []uint64
	Ends   []uint32
	IDs    []int32
	Counts []int32

	// The lookup aids, three views of one array: dir[b] is the first
	// column whose feature has top bits ≥ b (feature >> shift), and
	// dir[len(dir)-1] = len(Feats); dense lists the dense columns; the
	// bitmap of dense[d] is bits[d*w:(d+1)*w], w = (idBound+31)/32 words,
	// bit id%32 of word id/32 set for each ID of the column.
	dir, dense, bits []uint32
	idBound          int // 1 + the highest ID
	shift            uint8
}

// Row is one vector on its way into Columns, under its ID.
type Row struct {
	ID  int32
	Vec Vector
}

// Column returns the bounds of column k in IDs and Counts.
func (c *Columns) Column(k int) (lo, hi uint32) {
	if k > 0 {
		lo = c.Ends[k-1]
	}
	return lo, c.Ends[k]
}

// Find returns the column of feat, searching from column from on, and
// whether there is one (if not, the column it would take). The directory
// bounds the search to feat's bucket, a handful of columns.
func (c *Columns) Find(feat uint64, from int) (int, bool) {
	if from >= len(c.Feats) {
		return from, false
	}
	b := feat >> c.shift
	lo, hi := max(from, int(c.dir[b])), max(from, int(c.dir[b+1]))
	at, ok := slices.BinarySearch(c.Feats[lo:hi], feat)
	return lo + at, ok
}

// Bitmap returns the bitmap of column k if it is dense, nil if it is not.
// Bit id%32 of word id/32 is set for each ID the column holds; an ID from
// another column of c is in range. Callers that look up ascending columns
// pass from, a position in the list of dense columns, as 0 first and then
// as the last call returned, and the list is searched from there on.
func (c *Columns) Bitmap(k, from int) ([]uint32, int) {
	if !c.isDense(c.Column(k)) {
		return nil, from
	}
	d, _ := slices.BinarySearch(c.dense[from:], uint32(k))
	d += from
	w := (c.idBound + 31) / 32
	return c.bits[d*w : (d+1)*w], d + 1
}

// minDense is the fewest postings a dense column holds. A search of a
// shorter column touches a cache line or two, so a bitmap would only add
// the cost of writing it, which every GCindex generation pays.
const minDense = 32

// isDense reports whether the column at lo..hi holds at least minDense
// IDs and at least 1/32 of the IDs below idBound.
func (c *Columns) isDense(lo, hi uint32) bool {
	return hi-lo >= minDense && 32*int(hi-lo) >= c.idBound
}

// index writes c's lookup aids into aux's array, or into a new one if aux
// is too short: O(columns + dense postings).
func (c *Columns) index(aux []uint32) {
	c.idBound = 0
	for k := range c.Feats {
		c.idBound = max(c.idBound, int(c.IDs[c.Ends[k]-1])+1)
	}
	dense := 0
	for k := range c.Feats {
		if c.isDense(c.Column(k)) {
			dense++
		}
	}
	top := bits.Len(uint(len(c.Feats) / 8)) // 2^top buckets, 4–8 columns each
	c.shift = uint8(64 - top)
	nb, w := 1<<top, (c.idBound+31)/32
	if n := nb + 1 + dense + dense*w; cap(aux) >= n {
		aux = aux[:n]
		clear(aux[nb+1+dense:])
	} else {
		aux = make([]uint32, n)
	}
	c.dir, c.dense, c.bits = aux[:nb+1], aux[nb+1:nb+1+dense], aux[nb+1+dense:]
	b, d := 0, 0
	for k, feat := range c.Feats {
		for ; b <= int(feat>>c.shift); b++ {
			c.dir[b] = uint32(k)
		}
		if lo, hi := c.Column(k); c.isDense(lo, hi) {
			c.dense[d] = uint32(k)
			bm := c.bits[d*w : (d+1)*w]
			for _, id := range c.IDs[lo:hi] {
				bm[id/32] |= 1 << (id % 32)
			}
			d++
		}
	}
	for ; b <= nb; b++ {
		c.dir[b] = uint32(len(c.Feats))
	}
}

// Build lays out the postings of rows in new arrays; rows must ascend by
// ID. O(postings), a fixed number of allocations: IDs and Counts share
// one.
func Build(rows []Row) Columns {
	ps := mergeRows(rows)
	feats := 0
	for i := range ps {
		if i == 0 || ps[i].feat != ps[i-1].feat {
			feats++
		}
	}
	n := len(ps)
	postings := make([]int32, 2*n)
	c := Columns{
		Feats:  make([]uint64, 0, feats),
		Ends:   make([]uint32, 0, feats),
		IDs:    postings[:n:n],
		Counts: postings[n:],
	}
	for i, p := range ps {
		if i+1 == len(ps) || ps[i+1].feat != p.feat {
			c.Feats = append(c.Feats, p.feat)
			c.Ends = append(c.Ends, uint32(i+1))
		}
		c.IDs[i], c.Counts[i] = p.id, p.count
	}
	c.index(nil)
	return c
}

// Renumber writes into dst every posting of c under its new ID remap[id],
// dropping the postings whose new ID is negative and the columns that
// leaves empty; the postings of extra, under their own IDs, join them in
// the same forward pass. remap must cover every ID of c and ascend over
// the IDs it keeps, so that columns stay sorted, and no posting of extra
// may share a column and an ID with a kept one. A nil remap keeps every
// ID, and the runs of c's columns between extra's features are then
// copied as blocks. An empty dst gets new arrays with room for every
// posting and column of c and extra; otherwise dst's arrays, which must
// not share c's or extra's, are overwritten from position 0 and grow as
// the pass needs (new IDs and Counts share one allocation). The pass is
// linear in the postings of c and of extra; the lookup aids then take one
// pass over the columns written.
func (c *Columns) Renumber(dst *Columns, remap []int32, extra *Columns) {
	out := Columns{Feats: dst.Feats[:0], Ends: dst.Ends[:0], IDs: dst.IDs[:0], Counts: dst.Counts[:0]}
	if cap(out.IDs) == 0 {
		n := len(c.Feats) + len(extra.Feats)
		out.Feats, out.Ends = make([]uint64, 0, n), make([]uint32, 0, n)
		n = len(c.IDs) + len(extra.IDs)
		postings := make([]int32, 2*n)
		out.IDs, out.Counts = postings[:0:n], postings[n:n]
	}
	j := 0             // extra's next column
	var lo, xlo uint32 // the first posting of c's next column, and of extra's
	for k := 0; k < len(c.Feats); {
		feat := c.Feats[k]
		for ; j < len(extra.Feats) && extra.Feats[j] < feat; j++ { // columns only extra has
			xhi := extra.Ends[j]
			out.IDs = append(out.IDs, extra.IDs[xlo:xhi]...)
			out.Counts = append(out.Counts, extra.Counts[xlo:xhi]...)
			out.Feats = append(out.Feats, extra.Feats[j])
			out.Ends = append(out.Ends, uint32(len(out.IDs)))
			xlo = xhi
		}
		if remap == nil && (j == len(extra.Feats) || feat < extra.Feats[j]) {
			end := len(c.Feats) // c's columns before extra's next one
			if j < len(extra.Feats) {
				end, _ = c.Find(extra.Feats[j], k)
			}
			out = appendBlock(out, c, k, end)
			k, lo = end, c.Ends[end-1]
			continue
		}
		hi, xhi := c.Ends[k], xlo
		if j < len(extra.Feats) && extra.Feats[j] == feat {
			xhi = extra.Ends[j]
			j++
		}
		ids, counts := out.IDs, out.Counts
		begin := len(ids)
		for at := lo; at < hi; at++ { // c's column, renumbered, merged with extra's by ID
			id := c.IDs[at]
			if remap != nil {
				if id = remap[id]; id < 0 {
					continue
				}
			}
			for ; xlo < xhi && extra.IDs[xlo] < id; xlo++ {
				ids = append(ids, extra.IDs[xlo])
				counts = append(counts, extra.Counts[xlo])
			}
			ids = append(ids, id)
			counts = append(counts, c.Counts[at])
		}
		if xlo < xhi {
			ids = append(ids, extra.IDs[xlo:xhi]...)
			counts = append(counts, extra.Counts[xlo:xhi]...)
			xlo = xhi
		}
		out.IDs, out.Counts = ids, counts
		if len(ids) > begin {
			out.Feats = append(out.Feats, feat)
			out.Ends = append(out.Ends, uint32(len(ids)))
		}
		k, lo = k+1, hi
	}
	if j < len(extra.Feats) { // columns only extra has, past c's last
		out = appendBlock(out, extra, j, len(extra.Feats))
	}
	out.index(dst.dir[:0])
	*dst = out
}

// appendBlock returns dst with columns from up to to (from < to) of src
// appended as one block.
func appendBlock(dst Columns, src *Columns, from, to int) Columns {
	lo, _ := src.Column(from)
	hi := src.Ends[to-1]
	shift := uint32(len(dst.IDs)) - lo // wraps when negative; the sums below are exact
	dst.Feats = append(dst.Feats, src.Feats[from:to]...)
	ends := append(dst.Ends, src.Ends[from:to]...)
	for i := len(dst.Ends); i < len(ends); i++ {
		ends[i] += shift
	}
	dst.Ends = ends
	dst.IDs = append(dst.IDs, src.IDs[lo:hi]...)
	dst.Counts = append(dst.Counts, src.Counts[lo:hi]...)
	return dst
}

// posting is one (feature, ID, count) fact on its way into the columns.
type posting struct {
	feat      uint64
	id, count int32
}

// mergeRows returns the postings of rows in (feature, ID) order; rows must
// ascend by ID. The postings are laid out row after row — so by ID — and
// then sorted on the feature by a least-significant-digit radix sort, one
// byte per pass: every pass is a stable counting sort, so the postings of
// a feature keep their ID order, and a pass whose byte is the same for
// every posting is skipped. O(postings) per pass, one allocation.
func mergeRows(rows []Row) []posting {
	n := 0
	for i, r := range rows {
		if i > 0 && r.ID <= rows[i-1].ID {
			panic(fmt.Sprintf("pathfeat: rows out of ID order: %d after %d", r.ID, rows[i-1].ID))
		}
		n += len(r.Vec)
	}
	buf := make([]posting, 2*n)
	out, tmp := buf[:n:n], buf[n:]
	var counts [8][256]uint32 // counts[b][v]: postings whose feature has byte b = v
	i := 0
	for _, r := range rows {
		for _, fc := range r.Vec {
			out[i] = posting{fc.ID, r.ID, fc.Count}
			for b := range counts {
				counts[b][byte(fc.ID>>(8*b))]++
			}
			i++
		}
	}
	for b := range counts {
		shift, at := 8*b, &counts[b]
		if n == 0 || at[byte(out[0].feat>>shift)] == uint32(n) {
			continue
		}
		var sum uint32
		for v, k := range at {
			at[v], sum = sum, sum+k
		}
		for _, p := range out {
			v := byte(p.feat >> shift)
			tmp[at[v]] = p
			at[v]++
		}
		out, tmp = tmp, out
	}
	return out
}
