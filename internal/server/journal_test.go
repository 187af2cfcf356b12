package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// crash stops s the way kill -9 would: no Shutdown, so no snapshot write
// and no journal truncation.
func crash(s *Server) {
	s.ln.hs.Close()
	s.ln.lis.Close()
	s.jr.Close()
}

// restart starts a server over a fresh copy of the base dataset and the
// snapshot and journal files a previous server left behind.
func restart(t *testing.T, n int, seed int64, snap, jpath string) *Server {
	t.Helper()
	s := New(newTestCache(testDataset(n, seed)), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// sameDataset fails t unless got serves the epoch, dataset and answers of
// want.
func sameDataset(t *testing.T, got, want *Server, qs []*graph.Graph) {
	t.Helper()
	gds, wds := got.cache.Method().Dataset(), want.cache.Method().Dataset()
	if gds.Epoch() != wds.Epoch() || gds.Fingerprint() != wds.Fingerprint() {
		t.Fatalf("restarted at epoch %d (fingerprint %016x), want epoch %d (%016x)",
			gds.Epoch(), gds.Fingerprint(), wds.Epoch(), wds.Fingerprint())
	}
	for i, q := range qs {
		if g, w := method.Answer(got.cache.Method(), q), method.Answer(want.cache.Method(), q); !reflect.DeepEqual(g, w) {
			t.Fatalf("query %d after restart: %v, want %v", i, g, w)
		}
	}
}

// TestFailedAppendLeavesNoRecord: a mutation whose journal fsync fails is
// answered 500 and leaves no record behind, so the next mutation journals
// that epoch in its place. A restart over the same files lands at the
// acked mutations alone, not at the one refused.
func TestFailedAppendLeavesNoRecord(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")
	var failNext atomic.Bool
	oldSync := fsync
	fsync = func(f *os.File) error {
		if f.Name() == jpath && failNext.CompareAndSwap(true, false) {
			return errors.New("injected fsync failure")
		}
		return oldSync(f)
	}
	defer func() { fsync = oldSync }()

	ds := testDataset(60, 43)
	qs := testWorkload(ds, 15, 44)
	s := New(newTestCache(ds), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl := NewClient(s.Addr())
	ctx := context.Background()
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{1}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	failNext.Store(true)
	var se *StatusError
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{2}, Seq: 2}); !asStatus(err, &se) || se.Code != 500 {
		t.Fatalf("mutation with a failed journal fsync: %v, want a 500", err)
	}
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{3}, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if ds.Epoch() != 2 || !ds.Alive(2) || ds.Alive(3) {
		t.Fatalf("live dataset at epoch %d, alive(2)=%v alive(3)=%v; want epoch 2 without graph 3 only",
			ds.Epoch(), ds.Alive(2), ds.Alive(3))
	}
	crash(s)

	sameDataset(t, restart(t, 60, 43, snap, jpath), s, qs)
}

// TestPersistKeepsJournalAboveSnapshot: a snapshot empties the journal
// only when no record lies above its epoch. A record the cache has not
// applied is kept through the snapshot writes, and the restart replays it.
func TestPersistKeepsJournalAboveSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")
	var logs []string
	oldLogf := logf
	logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	defer func() { logf = oldLogf }()

	s := New(newTestCache(testDataset(60, 45)), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.jr.append(journalRecord{MutateRequest{Op: "remove", IDs: []int32{4}, Seq: 1}, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.persist(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	jr, recs, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("journal after two snapshots at epoch 0: %+v, want the epoch-1 record", recs)
	}
	if len(logs) != 2 || !strings.Contains(logs[0], "keeping") {
		t.Errorf("kept journal logged %q, want one line per snapshot", logs)
	}

	ds := restart(t, 60, 45, snap, jpath).cache.Method().Dataset()
	if ds.Epoch() != 1 || ds.Alive(4) {
		t.Fatalf("restart at epoch %d, alive(4)=%v; want the kept record replayed", ds.Epoch(), ds.Alive(4))
	}
}

// TestFailedDirSyncKeepsJournal: a snapshot whose rename is not known to
// be durable does not empty the journal. Shutdown reports the failed
// directory sync, the journal keeps its records, and the restart lands at
// the same epoch with the same answers.
func TestFailedDirSyncKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")
	ds := testDataset(60, 47)
	qs := testWorkload(ds, 15, 48)
	s := New(newTestCache(ds), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl := NewClient(s.Addr())
	ctx := context.Background()
	for i, req := range []MutateRequest{
		{Op: "remove", IDs: []int32{4}, Seq: 1},
		{Op: "add", Graphs: encodeOne(t, ds.Graph(9).Clone()), Seq: 2},
	} {
		if _, err := cl.Mutate(ctx, req); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}

	oldSync := fsync
	fsync = func(f *os.File) error {
		if fi, err := f.Stat(); err == nil && fi.IsDir() {
			return errors.New("injected directory fsync failure")
		}
		return oldSync(f)
	}
	defer func() { fsync = oldSync }()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err == nil || !strings.Contains(err.Error(), "syncing snapshot directory") {
		t.Fatalf("Shutdown with a failed directory sync: %v", err)
	}
	fsync = oldSync
	jr, recs, err := openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records after an unconfirmed snapshot, want 2", len(recs))
	}

	sameDataset(t, restart(t, 60, 47, snap, jpath), s, qs)
}

// TestParentJournalReplays: a journal written by an earlier version —
// add records carrying added_ids, one of them op-coalesced so a removed
// graph survives only as an empty placeholder — still replays to the
// dataset fingerprint and answers that version recorded beside it.
func TestParentJournalReplays(t *testing.T) {
	data, err := os.ReadFile("testdata/parent.journal")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Epoch       int64     `json:"epoch"`
		Fingerprint string    `json:"fingerprint"`
		Answers     [][]int32 `json:"answers"`
	}
	golden, err := os.ReadFile("testdata/parent.journal.want.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	// The fixture holds what it is for: added_ids and a placeholder.
	placeholder := false
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec struct {
			Op     string `json:"op"`
			Graphs string `json:"graphs"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		gs, _ := graph.DecodeText([]byte(rec.Graphs))
		for _, g := range gs {
			placeholder = placeholder || (rec.Op == "add" && g.NumVertices() == 0)
		}
	}
	if !bytes.Contains(data, []byte(`"added_ids"`)) || !placeholder {
		t.Fatal("testdata/parent.journal lost its added_ids fields or its coalesced placeholder")
	}

	jpath := filepath.Join(t.TempDir(), "mutations.journal")
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ds := testDataset(60, 41)
	qs := testWorkload(ds, 15, 42)
	c := newTestCache(ds)
	startServer(t, c, Options{JournalPath: jpath})
	if got := fmt.Sprintf("%016x", ds.Fingerprint()); ds.Epoch() != want.Epoch || got != want.Fingerprint {
		t.Fatalf("replayed to epoch %d, fingerprint %s; want %d, %s", ds.Epoch(), got, want.Epoch, want.Fingerprint)
	}
	for i, q := range qs {
		if got := method.Answer(c.Method(), q); !reflect.DeepEqual(got, want.Answers[i]) {
			t.Fatalf("query %d after replay: %v, want %v", i, got, want.Answers[i])
		}
	}
}

// FuzzOpenJournal: over any file bytes, openJournal never panics; it
// returns exactly the well-formed lines before the torn tail and trims the
// file to them, or refuses a file with garbage before its final line; and
// an append then re-open returns those records plus the one appended.
func FuzzOpenJournal(f *testing.F) {
	rec := `{"seq":1,"epoch":1,"op":"remove","ids":[2]}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(rec))
	f.Add([]byte(rec + `{"seq":2,"epoch":2,"op":"remo`))
	f.Add([]byte(rec + "garbage\n"))
	f.Add([]byte("garbage\n" + rec))
	if data, err := os.ReadFile("testdata/parent.journal"); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "mutations.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want []journalRecord
		valid, corrupt := 0, false
		for valid < len(data) {
			nl := bytes.IndexByte(data[valid:], '\n')
			if nl < 0 {
				break
			}
			var rec journalRecord
			if json.Unmarshal(data[valid:valid+nl], &rec) != nil {
				corrupt = valid+nl+1 < len(data)
				break
			}
			want = append(want, rec)
			valid += nl + 1
		}

		jr, recs, err := openJournal(path)
		if corrupt {
			if err == nil {
				jr.Close()
				t.Fatal("garbage before the final line was accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		if !reflect.DeepEqual(recs, want) {
			jr.Close()
			t.Fatalf("records %+v, want %+v", recs, want)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data[:valid]) {
			jr.Close()
			t.Fatalf("file not trimmed to its %d valid bytes: %q, %v", valid, got, err)
		}
		next := journalRecord{MutateRequest{Op: "remove", IDs: []int32{1}, Seq: 9}, 9}
		err = jr.append(next)
		jr.Close()
		if err != nil {
			t.Fatal(err)
		}
		jr, recs, err = openJournal(path)
		if err != nil {
			t.Fatalf("re-open after append: %v", err)
		}
		jr.Close()
		if !reflect.DeepEqual(recs, append(want, next)) {
			t.Fatalf("after append: %+v, want %+v", recs, append(want, next))
		}
	})
}
