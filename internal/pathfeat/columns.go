package pathfeat

import (
	"fmt"
	"math"
	"slices"
)

// Columns is a posting index over feature vectors in four flat,
// pointer-free arrays. Column k belongs to feature Feats[k] — Feats
// ascends — and occupies positions Ends[k-1] (0 for k = 0) up to Ends[k]
// of IDs and Counts: the IDs of the vectors holding the feature,
// ascending, and the feature's count in each. No column is empty.
//
// There are three editors. Remove deletes the postings of the vectors it
// is given and Merge adds them, in place: both move the postings behind
// the first one touched as blocks, so an edit costs the postings it names
// plus a memmove of the arrays. Renumber writes new arrays in one linear
// pass that drops and renumbers postings and adds those of rows. GGSX
// keys its postings by dataset-graph ID in two sets of columns: a main
// set that Renumber rebuilds when it compacts, and a small delta that
// Remove and Merge edit, so a mutation's memmove spans the delta alone. The
// GCindex keys them by slot and never writes to a published generation:
// each generation is one Renumber into new arrays.
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
// ascend over the IDs it keeps, so that columns stay sorted; rows must
// ascend by ID, and no row may share a new ID with a kept posting or
// another row. dst's arrays are overwritten from position 0, growing only
// if they lack room, and must not share c's. The pass is linear in the
// postings of c and of rows.
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

// Merge adds the postings of rows to c, in place. Rows must ascend by ID,
// and no ID of rows may have postings in c. The rows' vectors are laid
// out as one (feature, ID)-ordered run (mergeRows), and the arrays grow by
// what the run brings (amortised; nothing when their capacity already has
// room). They are then filled from the back, each old column moving up
// once to its final position, as a block with its neighbours when fresh
// postings do not split them: nothing is overwritten before it has moved.
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

// Remove deletes the postings of rows from c, in place: each row's vector
// must be exactly what c holds under the row's ID, and no two rows may
// share an ID. Each posting is located — its column by Find, its position
// by a binary search on the ID inside the column — and one block-move
// compaction then closes the gaps: the run between two deleted positions
// moves down once, each end drops by the deletions below it, and the
// columns left empty go. Columns before the first deletion are not
// touched. A posting that is not there, or holds another count, means c
// and rows disagree: Remove panics, before it has moved anything.
func (c *Columns) Remove(rows []Row) {
	n := 0
	for _, r := range rows {
		n += len(r.Vec)
	}
	if n == 0 {
		return
	}
	gone := make([]uint32, 0, n)
	for _, r := range rows {
		k := 0
		for _, fc := range r.Vec {
			var found bool
			if k, found = c.Find(fc.ID, k); !found {
				panic(fmt.Sprintf("pathfeat: Remove: row %d: feature %016x has no column", r.ID, fc.ID))
			}
			lo, hi := c.Column(k)
			at, found := slices.BinarySearch(c.IDs[lo:hi], r.ID)
			if !found || c.Counts[lo+uint32(at)] != fc.Count {
				panic(fmt.Sprintf("pathfeat: Remove: row %d: no posting of count %d in column %016x", r.ID, fc.Count, fc.ID))
			}
			gone = append(gone, lo+uint32(at))
		}
	}
	slices.Sort(gone)
	for i := 1; i < len(gone); i++ {
		if gone[i] == gone[i-1] {
			panic(fmt.Sprintf("pathfeat: Remove: position %d named twice", gone[i]))
		}
	}
	for i, at := range gone {
		next := uint32(len(c.IDs))
		if i+1 < len(gone) {
			next = gone[i+1]
		}
		copy(c.IDs[at-uint32(i):], c.IDs[at+1:next])
		copy(c.Counts[at-uint32(i):], c.Counts[at+1:next])
	}
	c.IDs = c.IDs[:len(c.IDs)-len(gone)]
	c.Counts = c.Counts[:len(c.IDs)]
	k, _ := slices.BinarySearch(c.Ends, gone[0]+1) // the column of the first deletion
	kept, d := k, 0
	prev, _ := c.Column(k) // the end of the last column kept
	for ; k < len(c.Ends); k++ {
		for d < len(gone) && gone[d] < c.Ends[k] {
			d++
		}
		if end := c.Ends[k] - uint32(d); end > prev {
			c.Feats[kept], c.Ends[kept] = c.Feats[k], end
			kept++
			prev = end
		}
	}
	c.Feats, c.Ends = c.Feats[:kept], c.Ends[:kept]
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
