package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

func snapshotFixture(tb testing.TB, opts Options) (*Cache, method.Method, []workload.Query) {
	tb.Helper()
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
	m := method.NewVF2Plus(ds)
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 120)
	if err != nil {
		tb.Fatal(err)
	}
	qs := workload.TypeA(ds, cfg, 62)
	c := New(m, opts)
	for _, q := range qs {
		c.Query(q.Graph)
	}
	return c, m, qs
}

// TestSnapshotRoundtrip: write → read into a fresh cache → identical
// contents, stats and serial counter, and a second write identical to the
// first, byte for byte.
func TestSnapshotRoundtrip(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5}
	c, m, _ := snapshotFixture(t, opts)

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	c2 := New(m, opts)
	if err := c2.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	want := c.CachedSerials()
	got := c2.CachedSerials()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored serials %v != %v", got, want)
	}
	for _, s := range want {
		g1, a1, _ := c.CachedEntry(s)
		g2, a2, ok := c2.CachedEntry(s)
		if !ok {
			t.Fatalf("entry %d missing after restore", s)
		}
		if !g1.StructurallyEqual(g2) {
			t.Fatalf("entry %d graph changed across snapshot", s)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("entry %d answers %v != %v", s, a2, a1)
		}
	}
	if r1, r2 := c.EntryStats(), c2.EntryStats(); !reflect.DeepEqual(r1, r2) {
		t.Fatalf("statistics rows %v != %v", r2, r1)
	}
	var again bytes.Buffer
	if err := c2.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("write → read → write changed the snapshot's bytes")
	}
}

// TestSnapshotGolden pins the format: testdata/fixture-v2.gcsnap is a
// snapshot an earlier build wrote over snapshotFixture (C = 15, W = 5).
// It must still load, and writing the loaded cache must reproduce it byte
// for byte.
func TestSnapshotGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/fixture-v2.gcsnap")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CacheSize: 15, WindowSize: 5}
	_, m, _ := snapshotFixture(t, opts)
	c := New(m, opts)
	if err := c.ReadSnapshot(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if n := len(c.CachedSerials()); n != 15 {
		t.Fatalf("the golden snapshot loaded %d entries, want 15", n)
	}
	checkEntryStats(t, c)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("rewriting the golden snapshot changed its bytes:\n%s", buf.String())
	}
}

// TestSnapshotRestoredCacheStillSound: a restored cache keeps answering
// exactly like the bare method, and serves hits from restored entries.
func TestSnapshotRestoredCacheStillSound(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5}
	c, m, qs := snapshotFixture(t, opts)

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := New(m, opts)
	if err := c2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		got := c2.Query(q.Graph).Answer
		want := method.Answer(m, q.Graph)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after restore: %v != %v", i, got, want)
		}
	}
	if c2.Totals().ExactHits == 0 {
		t.Error("restored cache produced no exact hits on the same workload")
	}
}

// TestSnapshotPreservesAdmissionCalibration: the calibrated threshold
// survives the restart instead of forcing a re-calibration phase.
func TestSnapshotPreservesAdmissionCalibration(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5, AdmissionFraction: 0.5}
	c, m, _ := snapshotFixture(t, opts)
	if c.AdmissionThreshold() == 0 {
		t.Skip("fixture workload did not calibrate a positive threshold")
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := New(m, opts)
	if err := c2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := c2.AdmissionThreshold(), c.AdmissionThreshold(); got != want {
		t.Errorf("restored admission threshold %g, want %g", got, want)
	}
}

// TestSnapshotSerialMonotonicity: serials continue from the snapshot's
// counter so restored entries can never collide with new queries.
func TestSnapshotSerialMonotonicity(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5}
	c, m, qs := snapshotFixture(t, opts)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := New(m, opts)
	if err := c2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	res := c2.Query(qs[0].Graph)
	if res.Stats.Serial <= c.Totals().Queries {
		t.Errorf("first post-restore serial %d did not continue after %d",
			res.Stats.Serial, c.Totals().Queries)
	}
}

// snapshotHeader returns the lines a snapshot over m's (unmutated)
// dataset opens with, up to and including the dataset binding.
func snapshotHeader(m method.Method) string {
	ds := m.Dataset()
	return fmt.Sprintf("gcsnapshot 2\nepoch 0 0\ndataset %d %d %016x\nbase %d %016x\n",
		ds.Live(), ds.Len(), ds.Fingerprint(), ds.BaseLen(), ds.BaseFingerprint())
}

// TestReadSnapshotRejectsGarbage enumerates malformed inputs; each must
// fail cleanly, and for its own reason — the header every case but the
// first two opens with is a loadable one.
func TestReadSnapshotRejectsGarbage(t *testing.T) {
	opts := Options{CacheSize: 5, WindowSize: 2}
	_, m, _ := snapshotFixture(t, opts)
	hdr := snapshotHeader(m)
	if err := New(m, opts).ReadSnapshot(strings.NewReader(hdr + "entries 0\ngraphs\n")); err != nil {
		t.Fatalf("the well-formed header does not load: %v", err)
	}
	for name, tc := range map[string]struct{ input, want string }{
		"empty":           {"", "reading snapshot header"},
		"wrong magic":     {"notasnapshot\n", "not a gcsnapshot 2"},
		"truncated":       {hdr + "serial 5\n", "truncated snapshot"},
		"bad serial":      {hdr + "serial x\ngraphs\n", "bad serial line"},
		"bad entry":       {hdr + "entry nope\ngraphs\n", "bad entry line"},
		"orphan stat":     {hdr + "stat 9 hits 1\ngraphs\n", "stat for unknown entry"},
		"unknown column":  {hdr + "entries 1\nentry 1 0\nstat 1 hitz 1\ngraphs\n", `unknown stat column "hitz"`},
		"count mismatch":  {hdr + "entries 2\nentry 1 0\ngraphs\n", "declares 2 entries, has 1"},
		"unknown line":    {hdr + "whatever\n", "unknown snapshot line"},
		"graph mismatch":  {hdr + "entries 1\nentry 1 0\ngraphs\n", "0 graphs for 1 entries"},
		"missing dataset": {"gcsnapshot 2\nentries 0\ngraphs\n", "missing dataset line"},
	} {
		c := New(m, opts)
		err := c.ReadSnapshot(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadSnapshot error = %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestWriteSnapshotOfEmptyCache: an empty cache round-trips to an empty
// cache.
func TestWriteSnapshotOfEmptyCache(t *testing.T) {
	_, m, _ := snapshotFixture(t, Options{CacheSize: 5, WindowSize: 2})
	c := New(m, Options{CacheSize: 5, WindowSize: 2})
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := New(m, Options{CacheSize: 5, WindowSize: 2})
	if err := c2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if n := len(c2.CachedSerials()); n != 0 {
		t.Errorf("restored empty cache has %d entries", n)
	}
}

// TestSnapshotDatasetMismatch: a snapshot written over dataset A must
// refuse to load against dataset B, with ErrDatasetMismatch.
func TestSnapshotDatasetMismatch(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5}
	c, _, _ := snapshotFixture(t, opts)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other := gen.DefaultAIDS().Scaled(0.002, 1).Generate(99) // different seed
	c2 := New(method.NewVF2Plus(other), opts)
	err := c2.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrDatasetMismatch) {
		t.Fatalf("loading A's snapshot against B: err = %v, want ErrDatasetMismatch", err)
	}
	if n := len(c2.CachedSerials()); n != 0 {
		t.Errorf("mismatched load left %d entries in the cache", n)
	}
}

// TestSnapshotMutatedDatasetRoundtrip: a snapshot of a mutated cache
// carries the dataset delta; loading it into a fresh cache over the
// pristine base dataset reproduces the mutated dataset, epoch, sequence
// number and entries.
func TestSnapshotMutatedDatasetRoundtrip(t *testing.T) {
	opts := Options{CacheSize: 15, WindowSize: 5}
	ds := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
	m := method.NewVF2Plus(ds)
	cfg, err := workload.TypeACategory("ZZ", 1.4, []int{4, 8}, 60)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.TypeA(ds, cfg, 62)
	c := New(m, opts)
	for _, q := range qs {
		c.Query(q.Graph)
	}

	// Mutate: add two graphs (reuse query graphs as new dataset members),
	// remove two, and remove one of the additions again to leave a
	// tombstone hole above the base ID space.
	adds := []*graph.Graph{qs[0].Graph.Clone(), qs[1].Graph.Clone()}
	resAdd, err := c.AddGraphs(adds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveGraphs([]int32{3, 7, resAdd.AddedIDs[1]}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh cache over the same *base* dataset (regenerate from seed).
	ds2 := gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)
	m2 := method.NewVF2Plus(ds2)
	c2 := New(m2, opts)
	if err := c2.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if ds2.Epoch() != ds.Epoch() {
		t.Errorf("restored epoch %d, want %d", ds2.Epoch(), ds.Epoch())
	}
	if ds2.Fingerprint() != ds.Fingerprint() {
		t.Errorf("restored fingerprint %016x, want %016x", ds2.Fingerprint(), ds.Fingerprint())
	}
	if ds2.Live() != ds.Live() || ds2.Len() != ds.Len() {
		t.Errorf("restored live/len %d/%d, want %d/%d", ds2.Live(), ds2.Len(), ds.Live(), ds.Len())
	}
	if got, want := c2.LastMutationSeq(), c.LastMutationSeq(); got != want {
		t.Errorf("restored mutation seq %d, want %d", got, want)
	}
	// Restored cache answers every query exactly like the bare method
	// over the mutated dataset.
	for i, q := range qs {
		got := c2.Query(q.Graph).Answer
		want := method.Answer(m2, q.Graph)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after mutated restore: %v != %v", i, got, want)
		}
	}
}

// TestSnapshotV1Rejected: a version-1 snapshot carries no dataset
// binding, so nothing could tell it was written over another dataset; it
// is refused like any non-snapshot and leaves the cache untouched. (The
// serving tier then quarantines the file and starts cold —
// TestCorruptSnapshotQuarantined in internal/server.)
func TestSnapshotV1Rejected(t *testing.T) {
	opts := Options{CacheSize: 5, WindowSize: 2}
	_, m, _ := snapshotFixture(t, opts)
	v1 := "gcsnapshot 1\nserial 3\nadmission 0 0\nentries 0\ngraphs\n"
	c := New(m, opts)
	if err := c.ReadSnapshot(strings.NewReader(v1)); err == nil {
		t.Fatal("v1 snapshot loaded")
	}
	if got := c.serial.Load(); got != 0 {
		t.Errorf("rejected v1 snapshot moved the serial counter to %d", got)
	}
}

// mutatedSnapshot returns a snapshot of a cache over a mutated dataset —
// graphs 3 and 7 removed — and fresh, which returns a new cache over the
// pristine base to load it into.
func mutatedSnapshot(tb testing.TB) (snap []byte, fresh func() *Cache) {
	tb.Helper()
	opts := Options{CacheSize: 5, WindowSize: 5}
	c, _, _ := snapshotFixture(tb, opts)
	if _, err := c.RemoveGraphs([]int32{3, 7}); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), func() *Cache {
		return New(method.NewVF2Plus(gen.DefaultAIDS().Scaled(0.002, 1).Generate(61)), opts)
	}
}

// TestReadSnapshotRejectsBadAnswers: a cached answer is lifted into query
// answers unverified and merged as a sorted set, so a snapshot whose
// entry answers are unsorted, repeat an ID, or name a negative,
// out-of-range or removed graph must not load — and must leave the
// dataset on its pristine base and the cache empty.
func TestReadSnapshotRejectsBadAnswers(t *testing.T) {
	snap, fresh := mutatedSnapshot(t)
	if err := fresh().ReadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatalf("the unmodified snapshot does not load: %v", err)
	}
	lines := strings.Split(string(snap), "\n")
	first := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "entry ") {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("the snapshot has no entry line")
	}
	serial := strings.Fields(lines[first])[1]
	for name, answer := range map[string]string{
		"unsorted":     "2 5 1",
		"duplicate":    "2 1 1",
		"negative":     "2 -1 4",
		"out of range": "2 4 100000",
		"removed":      "3 1 3 4",
	} {
		bad := slices.Clone(lines)
		bad[first] = "entry " + serial + " " + answer
		c := fresh()
		err := c.ReadSnapshot(strings.NewReader(strings.Join(bad, "\n")))
		if err == nil || !strings.Contains(err.Error(), "ascending live graph ID") {
			t.Errorf("%s answer %q: ReadSnapshot error = %v, want a rejected answer", name, answer, err)
			continue
		}
		if ds := c.Method().Dataset(); ds.Mutated() || len(c.CachedSerials()) != 0 {
			t.Errorf("%s answer: the rejected load left epoch %d and %d entries", name, ds.Epoch(), len(c.CachedSerials()))
		}
	}
}

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes, seeded with real
// snapshots of a mutated and an unmutated cache, all loaded into one cache
// as a peer's warm-ups would be: it never panics, and a snapshot it
// accepts caches only answers of ascending live graph IDs.
func FuzzReadSnapshot(f *testing.F) {
	snap, fresh := mutatedSnapshot(f)
	f.Add(snap)
	seed, _, _ := snapshotFixture(f, Options{CacheSize: 5, WindowSize: 5})
	var buf bytes.Buffer
	if err := seed.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	c := fresh()
	f.Fuzz(func(t *testing.T, data []byte) {
		if c.ReadSnapshot(bytes.NewReader(data)) != nil {
			return
		}
		ds := c.Method().Dataset()
		for _, s := range c.CachedSerials() {
			_, answer, _ := c.CachedEntry(s)
			for i, id := range answer {
				if !ds.Alive(id) || i > 0 && id <= answer[i-1] {
					t.Fatalf("entry %d loaded with answer %v over %d graphs", s, answer, ds.Len())
				}
			}
		}
	})
}
