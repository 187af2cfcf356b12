package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphcache/internal/dataset"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

func encodeOne(t *testing.T, g *graph.Graph) string {
	t.Helper()
	text, err := encodeGraphs([]*graph.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestMutateEndpoint drives add, remove and edit through POST /mutate
// and checks the served answers stay byte-identical to a cold cache
// over the mutated dataset.
func TestMutateEndpoint(t *testing.T) {
	ds := testDataset(60, 11)
	c := newTestCache(ds)
	s := startServer(t, c, Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()

	qs := testWorkload(ds, 20, 12)
	for _, q := range qs {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	// Add a clone of a dataset member.
	add, err := cl.Mutate(ctx, MutateRequest{Op: "add", Graphs: encodeOne(t, ds.Graph(0).Clone()), Seq: 1})
	if err != nil {
		t.Fatalf("mutate add: %v", err)
	}
	if !add.Applied || add.Epoch != 1 || len(add.AddedIDs) != 1 {
		t.Fatalf("add response %+v", add)
	}
	// Remove two members.
	rm, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{2, 5}, Seq: 2})
	if err != nil {
		t.Fatalf("mutate remove: %v", err)
	}
	if !rm.Applied || rm.Epoch != 2 || len(rm.RemovedIDs) != 2 {
		t.Fatalf("remove response %+v", rm)
	}
	// Edit: delete one edge of graph 1.
	g1 := ds.Graph(1)
	var eu, ev int32 = -1, -1
	g1.Edges(func(u, v int32) {
		if eu < 0 {
			eu, ev = u, v
		}
	})
	edited, err := dataset.ApplyEdgeEdits(g1, []dataset.EdgeEdit{{U: eu, V: ev, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	ed, err := cl.Mutate(ctx, MutateRequest{Op: "edit", IDs: []int32{1}, Graphs: encodeOne(t, edited), Seq: 3})
	if err != nil {
		t.Fatalf("mutate edit: %v", err)
	}
	if !ed.Applied || ed.Epoch != 3 {
		t.Fatalf("edit response %+v", ed)
	}

	// Replaying an applied seq acks without re-applying.
	dup, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{3}, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Applied || dup.Epoch != 3 || dup.Seq != 3 {
		t.Fatalf("duplicate seq response %+v", dup)
	}
	if !ds.Alive(3) {
		t.Fatal("duplicate seq mutated the dataset")
	}

	// /stats reports the epoch; answers match a cold evaluation.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DatasetEpoch != 3 || st.MutationSeq != 3 {
		t.Fatalf("stats epoch/seq %d/%d, want 3/3", st.DatasetEpoch, st.MutationSeq)
	}
	for i, q := range qs {
		res, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want := method.Answer(c.Method(), q)
		if !reflect.DeepEqual(res.Answer, want) {
			t.Fatalf("query %d after mutations: served %v, method %v", i, res.Answer, want)
		}
	}
}

// TestMutateValidation: malformed mutations get 400s and touch nothing.
func TestMutateValidation(t *testing.T) {
	ds := testDataset(40, 13)
	c := newTestCache(ds)
	s := startServer(t, c, Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()
	for name, req := range map[string]MutateRequest{
		"bad op":       {Op: "replace"},
		"add empty":    {Op: "add"},
		"bad graphs":   {Op: "add", Graphs: "not a graph"},
		"remove empty": {Op: "remove"},
		"remove dead":  {Op: "remove", IDs: []int32{9999}},
		"edit no id":   {Op: "edit", Graphs: "t # 0\nv 0 1\n"},
	} {
		_, err := cl.Mutate(ctx, req)
		var se *StatusError
		if err == nil || !asStatus(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}
	if ds.Epoch() != 0 {
		t.Errorf("rejected mutations advanced the epoch to %d", ds.Epoch())
	}
}

func asStatus(err error, out **StatusError) bool {
	for e := err; e != nil; {
		if se, ok := e.(*StatusError); ok {
			*out = se
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestJournalCrashReplay is the WAL soundness drill at unit scale: apply
// acked mutations, crash without any snapshot write (SIGKILL shape),
// restart over the same base dataset, and require the replayed dataset
// and answers to be exactly the pre-crash ones — zero acked loss.
func TestJournalCrashReplay(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")

	ds := testDataset(60, 17)
	c := newTestCache(ds)
	s := New(c, Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl := NewClient(s.Addr())
	ctx := context.Background()

	qs := testWorkload(ds, 15, 18)
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "add", Graphs: encodeOne(t, ds.Graph(4).Clone()), Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{1, 6}, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	wantEpoch := ds.Epoch()
	wantFP := ds.Fingerprint()
	var wantAnswers [][]int32
	for _, q := range qs {
		wantAnswers = append(wantAnswers, method.Answer(c.Method(), q))
	}

	// Crash: abort the HTTP server without Shutdown — no snapshot write,
	// no journal truncation, exactly what kill -9 leaves behind.
	s.hs.Close()
	s.lis.Close()
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("crash test wrote a snapshot somehow: %v", err)
	}

	// Restart over the same base dataset.
	ds2 := testDataset(60, 17)
	c2 := newTestCache(ds2)
	s2 := New(c2, Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s2.Start(); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	if ds2.Epoch() != wantEpoch {
		t.Fatalf("replayed epoch %d, want %d", ds2.Epoch(), wantEpoch)
	}
	if ds2.Fingerprint() != wantFP {
		t.Fatalf("replayed dataset fingerprint %016x, want %016x", ds2.Fingerprint(), wantFP)
	}
	for i, q := range qs {
		got := method.Answer(c2.Method(), q)
		if !reflect.DeepEqual(got, wantAnswers[i]) {
			t.Fatalf("query %d after replay: %v, want %v", i, got, wantAnswers[i])
		}
	}
}

// TestJournalTornTailTolerated: a partial final record (torn by a crash
// mid-append) is discarded; everything before it replays.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "mutations.journal")
	rec, _ := json.Marshal(journalRecord{Seq: 1, Epoch: 1, Op: "remove", IDs: []int32{2}})
	content := string(rec) + "\n" + `{"seq":2,"epoch":2,"op":"remo` // torn mid-write
	if err := os.WriteFile(jpath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, recs, err := openJournal(jpath)
	if err != nil {
		t.Fatalf("openJournal on torn tail: %v", err)
	}
	defer jr.Close()
	if len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("recovered records %+v, want the one intact record", recs)
	}
	// The torn bytes are trimmed so the next append starts cleanly.
	if err := jr.append(journalRecord{Seq: 2, Epoch: 2, Op: "remove", IDs: []int32{3}}); err != nil {
		t.Fatal(err)
	}
	_, recs, err = openJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Epoch != 2 {
		t.Fatalf("after re-append: %+v", recs)
	}
}

// TestJournalTruncatedAfterSnapshot: a graceful shutdown writes the
// snapshot (carrying the dataset delta) and drops the journal records it
// covers; the restart must not need them.
func TestJournalTruncatedAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")

	ds := testDataset(60, 19)
	c := newTestCache(ds)
	s := New(c, Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl := NewClient(s.Addr())
	if _, err := cl.Mutate(context.Background(), MutateRequest{Op: "remove", IDs: []int32{0}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("journal still holds %d bytes after a covering snapshot:\n%s", len(data), data)
	}

	ds2 := testDataset(60, 19)
	c2 := newTestCache(ds2)
	s2 := New(c2, Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Shutdown(ctx) }()
	if ds2.Epoch() != 1 || ds2.Alive(0) {
		t.Fatalf("snapshot alone did not restore the mutation: epoch %d, alive(0)=%v", ds2.Epoch(), ds2.Alive(0))
	}
}

// TestSnapshotDatasetMismatchQuarantine: a snapshot from dataset A
// loaded by a server over dataset B is quarantined to <path>.mismatch
// (not .corrupt — the bytes are fine) and the server starts cold.
func TestSnapshotDatasetMismatchQuarantine(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")

	dsA := testDataset(60, 23)
	cA := newTestCache(dsA)
	for _, q := range testWorkload(dsA, 10, 24) {
		cA.Query(q)
	}
	cA.Flush()
	if _, err := writeSnapshotFile(cA, snap); err != nil {
		t.Fatal(err)
	}

	var logs []string
	oldLogf := logf
	logf = func(format string, args ...any) { logs = append(logs, format) }
	defer func() { logf = oldLogf }()

	dsB := testDataset(60, 99) // different seed: different base dataset
	cB := newTestCache(dsB)
	s := startServer(t, cB, Options{SnapshotPath: snap})
	if n := len(cB.CachedSerials()); n != 0 {
		t.Fatalf("mismatched snapshot installed %d entries", n)
	}
	if _, err := os.Stat(snap + ".mismatch"); err != nil {
		t.Fatalf("no .mismatch quarantine file: %v", err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatal("original snapshot path still present after quarantine")
	}
	_ = s
	found := false
	for _, l := range logs {
		if strings.Contains(l, "unusable") {
			found = true
		}
	}
	if !found {
		t.Error("quarantine was not logged")
	}
}

// TestWarmDuringMutateKeepsJournal: warm-ups racing /mutate adds on a
// server with a journal. A warm-up's truncation swaps the file the appends
// write to, so it runs under the mutation lock: every /mutate is
// acknowledged (none refused, none appended to the replaced file), and the
// journal rereads cleanly with one record per acknowledged add — the peer
// is at epoch 0, so no truncation drops a record.
func TestWarmDuringMutateKeepsJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "mutations.journal")
	ds := testDataset(30, 73)
	peer := startServer(t, newTestCache(testDataset(30, 73)), Options{})
	s := startServer(t, newTestCache(ds), Options{JournalPath: jpath})
	cl := NewClient(s.Addr())
	ctx := context.Background()
	payload := encodeOne(t, ds.Graph(0).Clone())

	const adds, warms = 40, 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < warms; i++ {
			if _, err := s.WarmFrom(ctx, peer.Addr()); err != nil {
				t.Errorf("WarmFrom %d: %v", i, err)
			}
		}
	}()
	acked := 0
	for i := 0; i < adds; i++ {
		resp, err := cl.Mutate(ctx, MutateRequest{Op: "add", Graphs: payload})
		if err != nil || !resp.Applied {
			t.Errorf("Mutate %d: %v (applied %v)", i, err, resp.Applied)
			continue
		}
		acked++
	}
	<-done

	jr, recs, err := openJournal(jpath)
	if err != nil {
		t.Fatalf("rereading the journal: %v", err)
	}
	jr.Close()
	if acked != adds || len(recs) != acked {
		t.Errorf("%d of %d adds acknowledged, journal holds %d records", acked, adds, len(recs))
	}
}

// TestWarmCarriesEpoch: warming from a mutated peer lands the joiner at
// the peer's epoch, not 0 — join-warm ships the dataset delta inside the
// snapshot stream.
func TestWarmCarriesEpoch(t *testing.T) {
	dsA := testDataset(60, 29)
	cA := newTestCache(dsA)
	sA := startServer(t, cA, Options{})
	clA := NewClient(sA.Addr())
	ctx := context.Background()
	if _, err := clA.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{4}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Mutate(ctx, MutateRequest{Op: "add", Graphs: encodeOne(t, dsA.Graph(0).Clone()), Seq: 2}); err != nil {
		t.Fatal(err)
	}

	dsB := testDataset(60, 29)
	cB := newTestCache(dsB)
	sB := startServer(t, cB, Options{})
	resp, err := sB.WarmFrom(ctx, sA.Addr())
	if err != nil {
		t.Fatalf("WarmFrom: %v", err)
	}
	if resp.Epoch != 2 || dsB.Epoch() != 2 {
		t.Fatalf("warmed epoch %d (dataset %d), want 2", resp.Epoch, dsB.Epoch())
	}
	if dsB.Fingerprint() != dsA.Fingerprint() {
		t.Fatal("warmed dataset diverges from the peer's")
	}
	if cB.LastMutationSeq() != 2 {
		t.Errorf("warmed mutation seq %d, want 2", cB.LastMutationSeq())
	}
}
