package pathfeat

import (
	"cmp"
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

// FuzzColumnsEdit builds columns with Merge, deletes a subset of the rows
// with Remove and merges another set, and checks the result, array for
// array, against a Merge of the surviving rows into empty columns and
// against Renumber over the same change.
func FuzzColumnsEdit(f *testing.F) {
	f.Add([]byte{0x41, 0x00, 0x01, 0x01})                   // the only posting of column 0 goes
	f.Add([]byte{0x00, 0x42, 0x10, 0x21, 0x00, 0x22, 0x03}) // empty vectors among the rows
	f.Add([]byte{0x83, 0x01, 0x12, 0x23, 0x02, 0x01, 0x11, 0x23, 0x04, 0x05, 0x06})
	f.Add([]byte{0x44, 0x00, 0x10, 0x01, 0x02, 0x44, 0x00, 0x10, 0x01, 0x02, 0x21, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		ec := decodeEdit(data)
		var got Columns
		got.Merge(ec.build)
		built := Columns{
			Feats:  slices.Clone(got.Feats),
			Ends:   slices.Clone(got.Ends),
			IDs:    slices.Clone(got.IDs),
			Counts: slices.Clone(got.Counts),
		}
		var gone, kept []Row
		for _, r := range ec.build {
			if ec.deleted[r.ID] {
				gone = append(gone, r)
			} else {
				kept = append(kept, r)
			}
		}
		got.Remove(gone)
		got.Merge(ec.later)

		kept = append(kept, ec.later...)
		slices.SortFunc(kept, func(a, b Row) int { return cmp.Compare(a.ID, b.ID) })
		var want Columns
		want.Merge(kept)
		if !equalColumns(&got, &want) {
			t.Fatalf("Merge, Remove, Merge = %+v\nfresh Merge of the survivors = %+v", got, want)
		}

		remap := make([]int32, len(data)+1)
		for id := range remap {
			remap[id] = int32(id)
			if ec.deleted[int32(id)] {
				remap[id] = -1
			}
		}
		var renumbered Columns
		built.Renumber(&renumbered, remap, ec.later)
		if !equalColumns(&renumbered, &want) {
			t.Fatalf("Renumber = %+v\nfresh Merge of the survivors = %+v", renumbered, want)
		}
	})
}

// TestRemoveMissingPostingPanics: removing a posting the columns do not
// hold — an unknown feature, an ID absent from a column, a wrong count, a
// row named twice — is a broken invariant, and Remove fails loudly instead
// of skipping it, before it has moved anything.
func TestRemoveMissingPostingPanics(t *testing.T) {
	one := Row{ID: 0, Vec: Vector{{ID: 5, Count: 1}}}
	for _, tc := range []struct {
		name string
		rows []Row
	}{
		{"unknown feature", []Row{{ID: 0, Vec: Vector{{ID: 9, Count: 1}}}}},
		{"ID not in the column", []Row{{ID: 2, Vec: Vector{{ID: 5, Count: 1}}}}},
		{"other count", []Row{{ID: 0, Vec: Vector{{ID: 5, Count: 2}}}}},
		{"row named twice", []Row{one, one}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c, want Columns
			rows := []Row{one, {ID: 1, Vec: Vector{{ID: 5, Count: 3}}}}
			c.Merge(rows)
			want.Merge(rows)
			defer func() {
				if recover() == nil {
					t.Errorf("Remove(%+v) did not panic", tc.rows)
				}
				if !equalColumns(&c, &want) {
					t.Errorf("Remove(%+v) panicked after editing the columns: %+v", tc.rows, c)
				}
			}()
			c.Remove(tc.rows)
		})
	}
}
