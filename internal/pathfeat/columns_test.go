package pathfeat

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"slices"
	"testing"
)

// editCase is a Columns edit decoded from fuzz bytes: rows to build from,
// the IDs of those to delete, and rows to merge afterwards.
type editCase struct {
	build, later []Row
	deleted      map[int32]bool
}

// decodeEdit reads rows from data. Each row is a header byte h — its low
// nibble mod 5 is the number of features, and 0x20 means "merged later",
// 0x40 "deleted", 0x80 "deleted and merged later again" — followed by one
// byte per feature: the low nibble picks one of 16 feature IDs spread over
// all eight bytes (so every radix pass runs, and rows share columns), the
// high nibble the count. Two feature bytes of one row that pick the same
// ID are summed, as colliding paths are. Row i has ID i.
func decodeEdit(data []byte) editCase {
	ec := editCase{deleted: map[int32]bool{}}
	for id := int32(0); len(data) > 0; id++ {
		h := data[0]
		data = data[1:]
		counts := map[uint64]int32{}
		for j := 0; j < int(h&0x0f)%5 && len(data) > 0; j++ {
			counts[uint64(data[0]&0x0f)*0x9e3779b97f4a7c15] += int32(data[0]>>4)%4 + 1
			data = data[1:]
		}
		var vec Vector
		for feat, n := range counts {
			vec = append(vec, FeatCount{ID: feat, Count: n})
		}
		slices.SortFunc(vec, func(a, b FeatCount) int { return cmp.Compare(a.ID, b.ID) })
		row := Row{ID: id, Vec: vec}
		switch {
		case h&0x20 != 0:
			ec.later = append(ec.later, row)
		case h&0xc0 != 0:
			ec.build = append(ec.build, row)
			ec.deleted[id] = true
			if h&0x80 != 0 {
				ec.later = append(ec.later, row)
			}
		default:
			ec.build = append(ec.build, row)
		}
	}
	return ec
}

// equalColumns compares two Columns array for array.
func equalColumns(a, b *Columns) bool {
	return slices.Equal(a.Feats, b.Feats) && slices.Equal(a.Ends, b.Ends) &&
		slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Counts, b.Counts)
}

// referenceColumns lays rows out the slow way: a map from each feature
// to its postings, read back in sorted order.
func referenceColumns(rows []Row) Columns {
	byFeat := map[uint64]map[int32]int32{}
	for _, r := range rows {
		for _, fc := range r.Vec {
			if byFeat[fc.ID] == nil {
				byFeat[fc.ID] = map[int32]int32{}
			}
			byFeat[fc.ID][r.ID] += fc.Count
		}
	}
	var c Columns
	for _, feat := range slices.Sorted(maps.Keys(byFeat)) {
		for _, id := range slices.Sorted(maps.Keys(byFeat[feat])) {
			c.IDs = append(c.IDs, id)
			c.Counts = append(c.Counts, byFeat[feat][id])
		}
		c.Feats = append(c.Feats, feat)
		c.Ends = append(c.Ends, uint32(len(c.IDs)))
	}
	return c
}

// checkLookups checks c's lookup aids against want, c's map-based
// reference: Find, from every column on, against a linear scan of the
// reference's features, for each feature, its neighbours and the extremes;
// and, column by column in ascending order as a filter walks them, that a
// column holding at least 32 IDs and 1/32 of the IDs below the highest one
// has a bitmap, set exactly at its IDs, and that no other column has one.
func checkLookups(t *testing.T, what string, c, want *Columns) {
	t.Helper()
	probes := []uint64{0, 1, math.MaxUint64}
	for _, f := range want.Feats {
		probes = append(probes, f-1, f, f+1)
	}
	for _, f := range probes {
		for from := 0; from <= len(want.Feats)+1; from++ {
			at := from
			for at < len(want.Feats) && want.Feats[at] < f {
				at++
			}
			ok := at < len(want.Feats) && want.Feats[at] == f
			if gotAt, gotOK := c.Find(f, from); gotAt != at || gotOK != ok {
				t.Fatalf("%s: Find(%#x, %d) = %d, %v; a linear scan gives %d, %v", what, f, from, gotAt, gotOK, at, ok)
			}
		}
	}
	bound := 0
	for _, id := range want.IDs {
		bound = max(bound, int(id)+1)
	}
	d := 0
	for k := range want.Feats {
		lo, hi := want.Column(k)
		var bm []uint32
		bm, d = c.Bitmap(k, d)
		if dense := hi-lo >= 32 && 32*int(hi-lo) >= bound; dense != (bm != nil) {
			t.Fatalf("%s: column %d holds %d of %d IDs, bitmap %v", what, k, hi-lo, bound, bm)
		}
		if bm == nil {
			continue
		}
		if len(bm) != (bound+31)/32 {
			t.Fatalf("%s: column %d: bitmap of %d words for %d IDs", what, k, len(bm), bound)
		}
		for id := int32(0); int(id) < 32*len(bm); id++ {
			if set, holds := bm[id/32]>>(id%32)&1 == 1, slices.Contains(want.IDs[lo:hi], id); set != holds {
				t.Fatalf("%s: column %d, ID %d: bit %v, column holds it %v", what, k, id, set, holds)
			}
		}
	}
}

// FuzzColumnsEdit builds columns with Build, then drops the deleted rows
// and merges the later ones with Renumber, and checks both, array for
// array, against referenceColumns, and their lookup aids against it
// (checkLookups). Renumber runs under the two remaps its
// callers use: GGSX's, which keeps every ID or drops it (nil when nothing
// is dropped), and the GCindex's, which numbers the kept rows and the
// later ones by their rank in ID order, shifting kept IDs down over the
// dropped ones.
func FuzzColumnsEdit(f *testing.F) {
	f.Add([]byte{0x41, 0x00, 0x01, 0x01})                   // the only posting of column 0 goes
	f.Add([]byte{0x00, 0x42, 0x10, 0x21, 0x00, 0x22, 0x03}) // empty vectors among the rows
	f.Add([]byte{0x83, 0x01, 0x12, 0x23, 0x02, 0x01, 0x11, 0x23, 0x04, 0x05, 0x06})
	f.Add([]byte{0x44, 0x00, 0x10, 0x01, 0x02, 0x44, 0x00, 0x10, 0x01, 0x02, 0x21, 0x00})
	f.Add([]byte{0x01, 0x01, 0x21, 0x00})       // a later column before a block of built ones: the block's ends shift
	f.Add([]byte{0x02, 0x00, 0x01, 0x21, 0x02}) // a later column between built ones: the block ends before it
	// 100 empty rows, then a column of 40 IDs (dense) and one of 2
	// (sparse) among 143; deleting one ID of each leaves them so.
	f.Add(slices.Concat(bytes.Repeat([]byte{0x00}, 100), bytes.Repeat([]byte{0x01, 0x05}, 39),
		[]byte{0x41, 0x05, 0x01, 0x06, 0x41, 0x06, 0x21, 0x06}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ec := decodeEdit(data)
		built := Build(ec.build)
		if want := referenceColumns(ec.build); !equalColumns(&built, &want) {
			t.Fatalf("Build = %+v\nreference = %+v", built, want)
		} else {
			checkLookups(t, "Build", &built, &want)
		}

		var kept []Row
		for _, r := range ec.build {
			if !ec.deleted[r.ID] {
				kept = append(kept, r)
			}
		}
		survivors := slices.SortedFunc(slices.Values(append(slices.Clone(kept), ec.later...)),
			func(a, b Row) int { return cmp.Compare(a.ID, b.ID) })

		var keep []int32 // GGSX: every ID stays or goes
		if len(ec.deleted) > 0 {
			keep = make([]int32, len(data))
			for id := range keep {
				keep[id] = int32(id)
				if ec.deleted[int32(id)] {
					keep[id] = -1
				}
			}
		}
		later := Build(ec.later)
		var got Columns
		built.Renumber(&got, keep, &later)
		if want := referenceColumns(survivors); !equalColumns(&got, &want) {
			t.Fatalf("Renumber, IDs kept = %+v\nreference = %+v", got, want)
		} else {
			checkLookups(t, "Renumber, IDs kept", &got, &want)
		}

		// The GCindex: the survivors numbered by rank in ID order, so kept
		// IDs shift down over the dropped ones and the later rows' IDs
		// fall between them.
		fromLater := map[int32]bool{}
		for _, r := range ec.later {
			fromLater[r.ID] = true
		}
		shift := make([]int32, len(data))
		for id := range shift {
			shift[id] = -1
		}
		var ranked, rankedLater []Row
		for rank, r := range survivors {
			ranked = append(ranked, Row{ID: int32(rank), Vec: r.Vec})
			if fromLater[r.ID] {
				rankedLater = append(rankedLater, ranked[rank])
			} else {
				shift[r.ID] = int32(rank)
			}
		}
		later = Build(rankedLater)
		built.Renumber(&got, shift, &later)
		if want := referenceColumns(ranked); !equalColumns(&got, &want) {
			t.Fatalf("Renumber, IDs shifted = %+v\nreference = %+v", got, want)
		} else {
			checkLookups(t, "Renumber, IDs shifted", &got, &want)
		}
	})
}
