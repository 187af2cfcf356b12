package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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
	// /metrics counts the remove and the cached answers it shrank, and
	// shows the epoch the add and the remove reached.
	samples := scrapeMetrics(t, s.Addr())
	if v, ok := metricValue(samples, "graphcache_mutations_applied_total", map[string]string{"op": "remove"}); !ok || v < 1 {
		t.Errorf("mutations_applied_total{op=remove} = %v, %v; want >= 1", v, ok)
	}
	if v, ok := metricValue(samples, "graphcache_mutation_entries_invalidated_total", nil); !ok || v < 1 {
		t.Errorf("mutation_entries_invalidated_total = %v, %v; want >= 1 (remove reported %d)", v, ok, rm.Invalidated)
	}
	if v, ok := metricValue(samples, "graphcache_dataset_epoch", nil); !ok || v != 2 {
		t.Errorf("dataset_epoch = %v, %v; want 2", v, ok)
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

// TestJournalCrashReplay is the WAL soundness drill at unit scale: warm
// the cache, apply acked mutations with a snapshot taken partway through
// them, then abort the server in the middle of a concurrent burst of
// acked removes — no Shutdown, no final snapshot, exactly what kill -9
// leaves behind. The restart over the same base dataset loads the
// snapshot and replays the journal past it: it must lose no acked
// mutation, come back to exactly the pre-crash dataset, serve a warm
// cache, and answer through its client as the method does over the
// replayed dataset.
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
	for _, q := range qs {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "add", Graphs: encodeOne(t, ds.Graph(4).Clone()), Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// The snapshot holds the warm cache and the add; the journal keeps
	// only what follows.
	if err := s.persist(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{1, 6}, Seq: 2}); err != nil {
		t.Fatal(err)
	}

	// Four clients remove one graph per request until the crash cuts
	// them off; acked is the highest epoch any of them saw acked.
	var (
		mu     sync.Mutex
		acked  int64
		nAcked int
		enough = make(chan struct{})
		wg     sync.WaitGroup
	)
	for w := int32(0); w < 4; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for id := 20 + w; id < 60; id += 4 {
				resp, err := cl.Mutate(ctx, MutateRequest{Op: "remove", IDs: []int32{id}})
				if err != nil {
					return
				}
				mu.Lock()
				acked = max(acked, resp.Epoch)
				if nAcked++; nAcked == 4 {
					close(enough)
				}
				mu.Unlock()
			}
		}(w)
	}
	select {
	case <-enough:
	case <-time.After(10 * time.Second):
		t.Fatal("the burst saw no four acks within 10s")
	}

	// Crash: abort the HTTP server without Shutdown. A handler may still
	// be between its journal append and its apply, so take mutMu — and
	// keep it, so no handler queued behind it runs — before the journal
	// is reopened; then drop the journal's descriptor, as the dying
	// process would.
	s.ln.hs.Close()
	s.ln.lis.Close()
	wg.Wait()
	s.mutMu.Lock()
	s.jr.Close()
	wantEpoch, wantFP := ds.Epoch(), ds.Fingerprint()

	// Restart over the same base dataset.
	ds2 := testDataset(60, 17)
	c2 := newTestCache(ds2)
	s2 := startServer(t, c2, Options{SnapshotPath: snap, JournalPath: jpath})
	if got := ds2.Epoch(); got < acked {
		t.Fatalf("replayed epoch %d, but the burst saw epoch %d acked", got, acked)
	}
	if ds2.Epoch() != wantEpoch {
		t.Fatalf("replayed epoch %d, want %d", ds2.Epoch(), wantEpoch)
	}
	if ds2.Fingerprint() != wantFP {
		t.Fatalf("replayed dataset fingerprint %016x, want %016x", ds2.Fingerprint(), wantFP)
	}
	cl2 := NewClient(s2.Addr())
	st, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached == 0 || st.DatasetEpoch != wantEpoch {
		t.Fatalf("restarted server reports %d cached at epoch %d; want a warm cache at epoch %d", st.Cached, st.DatasetEpoch, wantEpoch)
	}
	for i, q := range qs {
		res, err := cl2.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := method.Answer(c2.Method(), q); !reflect.DeepEqual(res.Answer, want) {
			t.Fatalf("query %d after replay: served %v, method %v", i, res.Answer, want)
		}
		if want := method.Answer(c.Method(), q); !reflect.DeepEqual(res.Answer, want) {
			t.Fatalf("query %d after replay: served %v, pre-crash method %v", i, res.Answer, want)
		}
	}
}

// TestJournalReplayMetered: mutations replayed from the journal on
// restart are metered like the ones POST /mutate applies. A server crashes
// after a snapshot and three journaled mutations; the restarted server's
// /metrics counts each replayed op once and the cached entries their
// replay repaired, which a cache loaded from the same snapshot reports for
// the same mutations.
func TestJournalReplayMetered(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")

	ds := testDataset(60, 31)
	s := New(newTestCache(ds), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl := NewClient(s.Addr())
	ctx := context.Background()
	for _, q := range testWorkload(ds, 30, 32) {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.persist(); err != nil {
		t.Fatal(err)
	}
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
	reqs := []MutateRequest{
		{Op: "add", Graphs: encodeOne(t, ds.Graph(0).Clone()), Seq: 1},
		{Op: "remove", IDs: []int32{2, 5, 9}, Seq: 2},
		{Op: "edit", IDs: []int32{1}, Graphs: encodeOne(t, edited), Seq: 3},
	}
	for _, req := range reqs {
		if _, err := cl.Mutate(ctx, req); err != nil {
			t.Fatalf("mutate %s: %v", req.Op, err)
		}
	}
	snapBytes, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no Shutdown, so no snapshot covers the three mutations.
	s.ln.hs.Close()
	s.ln.lis.Close()
	s.jr.Close()

	// What replay repairs: the same mutations over the same snapshot.
	ref := newTestCache(testDataset(60, 31))
	body, err := splitChecked(snapBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ReadSnapshot(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	var want struct{ extended, reverified, invalidated float64 }
	for _, req := range reqs {
		mut, err := decodeMutation(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.ApplyMutation(mut)
		if err != nil {
			t.Fatal(err)
		}
		want.extended += float64(res.Extended)
		want.reverified += float64(res.Reverified)
		want.invalidated += float64(res.Invalidated)
	}
	if want.extended+want.invalidated == 0 {
		t.Fatal("the mutations repaired no cached entry; the check below would count nothing")
	}

	ds2 := testDataset(60, 31)
	s2 := startServer(t, newTestCache(ds2), Options{SnapshotPath: snap, JournalPath: jpath})
	if ds2.Epoch() != 3 {
		t.Fatalf("replayed to epoch %d, want 3", ds2.Epoch())
	}
	samples := scrapeMetrics(t, s2.Addr())
	for _, op := range []string{"add", "remove", "edit"} {
		if v, ok := metricValue(samples, "graphcache_mutations_applied_total", map[string]string{"op": op}); !ok || v != 1 {
			t.Errorf("mutations_applied_total{op=%s} = %v, %v after replay; want 1", op, v, ok)
		}
	}
	for name, w := range map[string]float64{
		"graphcache_mutation_entries_extended_total":    want.extended,
		"graphcache_mutation_entries_reverified_total":  want.reverified,
		"graphcache_mutation_entries_invalidated_total": want.invalidated,
		"graphcache_mutation_seconds_count":             float64(len(reqs)),
	} {
		if v, ok := metricValue(samples, name, nil); !ok || v != w {
			t.Errorf("%s = %v, %v after replay; want %v", name, v, ok, w)
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

// TestJournalReplayRefusals: a journal record replay cannot apply aborts
// Start — one that skips an epoch, and one that no longer applies (it
// removes a graph an earlier record already removed). The error names the
// record's epoch, and neither the snapshot nor the journal is touched, so
// the operator can inspect both.
func TestJournalReplayRefusals(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")

	// A snapshot at epoch 1, over an emptied journal.
	ds := testDataset(40, 21)
	s := New(newTestCache(ds), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	if _, err := NewClient(s.Addr()).Mutate(context.Background(), MutateRequest{Op: "remove", IDs: []int32{1}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	first := `{"seq":2,"epoch":2,"op":"remove","ids":[0]}` + "\n"
	for name, tc := range map[string]struct{ journal, want string }{
		"skipped epoch": {first + `{"seq":3,"epoch":4,"op":"remove","ids":[2]}` + "\n", "journal record at epoch 4 cannot follow dataset epoch 2"},
		"stale record":  {first + `{"seq":3,"epoch":3,"op":"remove","ids":[0]}` + "\n", "replaying journal record at epoch 3"},
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(jpath, []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(newTestCache(testDataset(40, 21)), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
			err := s.Start()
			if s.jr != nil {
				s.jr.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Start = %v; want an error containing %q", err, tc.want)
			}
			if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, snapBytes) {
				t.Errorf("the refused start changed the snapshot (read error %v)", err)
			}
			if got, err := os.ReadFile(jpath); err != nil || string(got) != tc.journal {
				t.Errorf("the refused start changed the journal to %q (read error %v)", got, err)
			}
		})
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
	if err := writeSnapshotFile(cA, snap); err != nil {
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
// server with a journal. A warm-up empties the journal, swapping the file
// the appends write to, so it runs under the mutation lock: every /mutate
// is acknowledged (none refused, none appended to the replaced file), and
// the journal rereads cleanly with exactly the adds since the last
// warm-up — the peer is at epoch 0, so they are epochs 1 through the
// dataset's epoch, one record each.
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
	if acked != adds {
		t.Errorf("%d of %d adds acknowledged", acked, adds)
	}
	epoch := s.cache.DatasetEpoch()
	if int64(len(recs)) != epoch {
		t.Errorf("journal holds %d records, the dataset is at epoch %d since the last warm-up", len(recs), epoch)
	}
	for i, rec := range recs {
		if rec.Epoch != int64(i+1) {
			t.Errorf("journal record %d has epoch %d, want %d", i, rec.Epoch, i+1)
		}
	}
}

// TestWarmLeavesNoPreWarmJournal is the crash-after-warm-up case: a
// backend whose journal holds records above the peer's epoch warms from
// the peer, acks one mutation and crashes. Restarted over the same
// snapshot and journal files, it must come back at the peer's epoch plus
// that one mutation, with the peer's answers — not replay its own
// discarded history, and not stop on an epoch gap.
func TestWarmLeavesNoPreWarmJournal(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.gcsnapshot")
	jpath := filepath.Join(dir, "mutations.journal")
	ctx := context.Background()

	// The peer is at epoch 1 after one add.
	dsP := testDataset(60, 31)
	qs := testWorkload(dsP, 15, 32) // drawn before any graph is removed
	cP := newTestCache(dsP)
	peer := startServer(t, cP, Options{})
	clP := NewClient(peer.Addr())
	if _, err := clP.Mutate(ctx, MutateRequest{Op: "add", Graphs: encodeOne(t, dsP.Graph(3).Clone()), Seq: 1}); err != nil {
		t.Fatal(err)
	}

	// The local backend journals a different history up to epoch 3.
	dsL := testDataset(60, 31)
	s := New(newTestCache(dsL), Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	cl := NewClient(s.Addr())
	for i, req := range []MutateRequest{
		{Op: "remove", IDs: []int32{7}},
		{Op: "add", Graphs: encodeOne(t, dsL.Graph(9).Clone())},
		{Op: "remove", IDs: []int32{11, 12}},
	} {
		if _, err := cl.Mutate(ctx, req); err != nil {
			t.Fatalf("local mutation %d: %v", i, err)
		}
	}

	if _, err := s.WarmFrom(ctx, peer.Addr()); err != nil {
		t.Fatalf("WarmFrom: %v", err)
	}
	// One mutation after the warm-up, on both sides.
	after := MutateRequest{Op: "remove", IDs: []int32{5}, Seq: 2}
	if _, err := cl.Mutate(ctx, after); err != nil {
		t.Fatalf("mutation after the warm-up: %v", err)
	}
	if _, err := clP.Mutate(ctx, after); err != nil {
		t.Fatalf("peer mutation: %v", err)
	}

	// Crash: no Shutdown, so no snapshot write and no truncation.
	s.ln.hs.Close()
	s.ln.lis.Close()
	s.jr.Close()

	dsR := testDataset(60, 31)
	cR := newTestCache(dsR)
	s2 := New(cR, Options{Addr: "127.0.0.1:0", SnapshotPath: snap, JournalPath: jpath})
	if err := s2.Start(); err != nil {
		t.Fatalf("restart after the warm-up: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	if dsR.Epoch() != dsP.Epoch() || dsR.Epoch() != 2 {
		t.Fatalf("restarted at epoch %d, the peer is at %d; want 2", dsR.Epoch(), dsP.Epoch())
	}
	if dsR.Fingerprint() != dsP.Fingerprint() {
		t.Fatal("restarted dataset diverges from the peer's")
	}
	for i, q := range qs {
		if got, want := method.Answer(cR.Method(), q), method.Answer(cP.Method(), q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after restart: %v, the peer answers %v", i, got, want)
		}
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

// FuzzMutateRequest feeds arbitrary POST /mutate bodies through the
// handler's decode path: the JSON body as ReadJSON reads it (unknown
// fields refused, size bounded), then decodeMutation. Nothing may panic.
// A body that decodes must either fail ValidateMutation with an error or
// pass it and then apply to a fresh cache without one. Bodies are bounded
// at 1 KiB: an added dense graph costs Method M's path enumeration
// O(|V|^5) on a clique, and at 4 KiB one input can take seconds.
func FuzzMutateRequest(f *testing.F) {
	const maxBody = 1 << 10
	ds := testDataset(20, 61)
	one, err := encodeGraphs([]*graph.Graph{ds.Graph(0)})
	if err != nil {
		f.Fatal(err)
	}
	two, err := encodeGraphs([]*graph.Graph{ds.Graph(1), ds.Graph(2)})
	if err != nil {
		f.Fatal(err)
	}
	seed := func(req MutateRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(MutateRequest{Op: "add", Graphs: one, Seq: 1})
	seed(MutateRequest{Op: "add", Graphs: two})
	seed(MutateRequest{Op: "remove", IDs: []int32{3, 4}, Seq: 2})
	seed(MutateRequest{Op: "remove", IDs: []int32{-1, 19, 20, math.MaxInt32}})
	seed(MutateRequest{Op: "edit", IDs: []int32{0}, Graphs: one, Seq: 3})
	seed(MutateRequest{Op: "edit", IDs: []int32{1}, Graphs: one})
	seed(MutateRequest{Op: "edit", IDs: []int32{0, 1}, Graphs: two})
	seed(MutateRequest{Op: "rename", IDs: []int32{0}})
	seed(MutateRequest{Op: "ADD", Graphs: one, Seq: -5})
	for _, s := range []string{
		``, `null`, `{}`, `[]`, `{"op":"remove","ids":[]}`, `{"op":"add","graphs":""}`,
		`{"op":"add","graphs":"t # 0\nv 0 1\nv 1 2\ne 0 1`, // torn mid-graph
		`{"op":"remove","ids":[1,2`,                        // torn mid-array
		`{"op":"add","graphs":"t # 0\nv 0 1\ne 0 7 0\n"}`,  // edge to a missing vertex
		`{"op":"remove","ids":[1],"extra":true}`,
		`{"op":"remove","ids":[1]} {"op":"add"}`,
		`{"op":"remove","ids":[4294967296]}`,
		`{"op":"edit","ids":[0],"graphs":"t # 0\nv 0 1\n","seq":9223372036854775807}`,
	} {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"op":"remove","ids":[` + strings.Repeat("1,", maxBody) + `1]}`)) // oversized
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		var req MutateRequest
		if !ReadJSON(rec, httptest.NewRequest(http.MethodPost, "/mutate", bytes.NewReader(body)), maxBody, &req) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("refused body %q answered %d, want 400", body, rec.Code)
			}
			return
		}
		mut, err := decodeMutation(req)
		if err != nil {
			return
		}
		c := newTestCache(testDataset(20, 61))
		if err := c.ValidateMutation(mut); err != nil {
			return
		}
		if _, err := c.ApplyMutation(mut); err != nil {
			t.Fatalf("request %+v passed ValidateMutation but did not apply: %v", req, err)
		}
	})
}
