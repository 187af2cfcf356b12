package pathfeat

import (
	"math"
	"slices"
)

// Columns is a posting index over feature vectors in four flat,
// pointer-free arrays. Column k belongs to feature Feats[k] — Feats
// ascends — and occupies positions Ends[k-1] (0 for k = 0) up to Ends[k]
// of IDs and Counts: the IDs of the vectors holding the feature,
// ascending, and the feature's count in each. No column is empty.
//
// GGSX keys its postings by dataset-graph ID and updates them in place —
// Renumber to drop graphs, then Merge to add them. The GCindex keys them by
// slot and never writes to a published generation: one Renumber into new
// arrays drops, renumbers and adds. Each pass is linear in the postings it
// moves.
type Columns struct {
	Feats  []uint64
	Ends   []uint32
	IDs    []int32
	Counts []int32
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
// whether there is one (if not, the column it would take). Features probed
// in ascending order resume each search where the last one ended; the
// search gallops — steps of 1, 2, 4, … columns, then a binary search
// inside the last step — so its cost follows the log of the distance
// skipped, not of the columns left.
func (c *Columns) Find(feat uint64, from int) (int, bool) {
	feats := c.Feats[from:]
	hi := 1
	for hi <= len(feats) && feats[hi-1] < feat {
		hi *= 2
	}
	lo := hi / 2 // feats[:lo] < feat
	at, ok := slices.BinarySearch(feats[lo:min(hi, len(feats))], feat)
	return from + lo + at, ok
}

// Renumber writes into dst every posting of c under its new ID remap[id],
// dropping the postings whose new ID is negative or whose ID lies past
// the end of remap, and the columns that leaves empty; the postings of
// rows, under their IDs, join them in the same forward pass. remap must
// ascend over the IDs it keeps, so that columns stay sorted, and no row
// may share a new ID with a kept posting or another row. dst's arrays
// are overwritten from position 0, growing only if they lack room. dst
// may be c itself when rows is empty: then no posting moves up.
func (c *Columns) Renumber(dst *Columns, remap []int32, rows []Row) {
	feats, ends, ids, counts := c.Feats, c.Ends, c.IDs, c.Counts
	fresh := mergeRows(rows)
	dst.Feats, dst.Ends = dst.Feats[:0], dst.Ends[:0]
	dst.IDs, dst.Counts = dst.IDs[:0], dst.Counts[:0]
	j := 0 // next fresh posting
	// take appends the fresh postings of feat with IDs below id.
	take := func(feat uint64, id int32) {
		for ; j < len(fresh) && fresh[j].feat == feat && fresh[j].id < id; j++ {
			dst.IDs = append(dst.IDs, fresh[j].id)
			dst.Counts = append(dst.Counts, fresh[j].count)
		}
	}
	closeColumn := func(feat uint64, begin int) {
		if len(dst.IDs) > begin {
			dst.Feats = append(dst.Feats, feat)
			dst.Ends = append(dst.Ends, uint32(len(dst.IDs)))
		}
	}
	var lo uint32
	for k, hi := range ends {
		feat := feats[k]
		for j < len(fresh) && fresh[j].feat < feat { // columns only rows have
			f, begin := fresh[j].feat, len(dst.IDs)
			take(f, math.MaxInt32)
			closeColumn(f, begin)
		}
		begin := len(dst.IDs)
		for at := lo; at < hi; at++ {
			if id := ids[at]; int(id) < len(remap) && remap[id] >= 0 {
				take(feat, remap[id])
				dst.IDs = append(dst.IDs, remap[id])
				dst.Counts = append(dst.Counts, counts[at])
			}
		}
		take(feat, math.MaxInt32)
		lo = hi
		closeColumn(feat, begin)
	}
	for j < len(fresh) {
		f, begin := fresh[j].feat, len(dst.IDs)
		take(f, math.MaxInt32)
		closeColumn(f, begin)
	}
}

// posting is one (feature, ID, count) fact on its way into the columns.
type posting struct {
	feat      uint64
	id, count int32
}

// Merge adds the postings of rows to c, in place. No ID of rows may have
// postings in c, and no two rows may share an ID. The rows' vectors are
// merged into one (feature, ID)-ordered run — a k-way merge over a heap of
// row cursors, no comparison sort — and the arrays grow by what the run
// brings (amortised; nothing when their capacity already has room). They
// are then filled from the back, each old column moving up once to its
// final position: nothing is overwritten before it has moved.
func (c *Columns) Merge(rows []Row) {
	fresh := mergeRows(rows)
	opened := 0 // columns fresh opens
	for j, k := 0, 0; j < len(fresh); j++ {
		if j == 0 || fresh[j].feat != fresh[j-1].feat {
			at, found := c.Find(fresh[j].feat, k)
			k = at
			if !found {
				opened++
			}
		}
	}
	k := len(c.Feats) // old columns from k on are in their final place
	c.Feats = slices.Grow(c.Feats, opened)[:k+opened]
	c.Ends = slices.Grow(c.Ends, opened)[:k+opened]
	c.IDs = slices.Grow(c.IDs, len(fresh))[:len(c.IDs)+len(fresh)]
	c.Counts = slices.Grow(c.Counts, len(fresh))[:len(c.IDs)]
	col, at := len(c.Feats), len(c.IDs) // final columns from col on, postings from at on, are written
	for j := len(fresh); j > 0; {
		feat := fresh[j-1].feat
		// The old columns past feat move up as one block.
		from, found := slices.BinarySearch(c.Feats[:k], feat)
		if found {
			from++
		}
		if from < k {
			lo, _ := c.Column(from)
			hi := c.Ends[k-1]
			at -= int(hi - lo)
			copy(c.IDs[at:], c.IDs[lo:hi])
			copy(c.Counts[at:], c.Counts[lo:hi])
			col -= k - from
			copy(c.Feats[col:], c.Feats[from:k])
			for i := k - 1; i >= from; i-- {
				c.Ends[col+i-from] = c.Ends[i] + uint32(at) - lo
			}
			k = from
		}
		// feat's column: its old postings and its fresh ones, by ID.
		var lo, hi uint32
		if found {
			k--
			lo, hi = c.Column(k)
		}
		end := uint32(at)
		for ; j > 0 && fresh[j-1].feat == feat; j-- {
			for ; lo < hi && c.IDs[hi-1] > fresh[j-1].id; hi-- {
				at--
				c.IDs[at], c.Counts[at] = c.IDs[hi-1], c.Counts[hi-1]
			}
			at--
			c.IDs[at], c.Counts[at] = fresh[j-1].id, fresh[j-1].count
		}
		at -= int(hi - lo)
		copy(c.IDs[at:], c.IDs[lo:hi])
		copy(c.Counts[at:], c.Counts[lo:hi])
		col--
		c.Feats[col], c.Ends[col] = feat, end
	}
}

// mergeRows returns the postings of rows in (feature, ID) order. Each
// row's vector is already sorted by feature, so a binary min-heap of row
// cursors, keyed by the cursor's next feature and then its row's ID,
// yields them in order in O(postings · log rows).
func mergeRows(rows []Row) []posting {
	n := 0
	h := make([]Row, 0, len(rows)) // cursors: Vec is the row's unmerged rest
	for _, r := range rows {
		if len(r.Vec) > 0 {
			n += len(r.Vec)
			h = append(h, r)
		}
	}
	less := func(a, b *Row) bool {
		return a.Vec[0].ID < b.Vec[0].ID || a.Vec[0].ID == b.Vec[0].ID && a.ID < b.ID
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(h) && less(&h[l], &h[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(h) && less(&h[r], &h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]posting, 0, n)
	for len(h) > 0 {
		top := &h[0]
		out = append(out, posting{top.Vec[0].ID, top.ID, top.Vec[0].Count})
		if top.Vec = top.Vec[1:]; len(top.Vec) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
