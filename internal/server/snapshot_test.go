package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/ggsx"
)

// testSnapshotBytes produces a checked snapshot of a warmed cache.
func testSnapshotBytes(t *testing.T) []byte {
	t.Helper()
	ds := testDataset(30, 61)
	queries := testWorkload(ds, 10, 62)
	c := newTestCache(ds)
	for _, q := range queries {
		c.Query(q)
	}
	c.Flush()
	var buf bytes.Buffer
	if err := writeCheckedSnapshot(c, &buf); err != nil {
		t.Fatalf("writeCheckedSnapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotChecksumRoundtrip: a checked snapshot verifies and loads;
// any single flipped byte and any truncation are detected.
func TestSnapshotChecksumRoundtrip(t *testing.T) {
	data := testSnapshotBytes(t)

	body, err := splitChecked(data)
	if err != nil {
		t.Fatalf("splitChecked of a fresh snapshot: %v", err)
	}
	ds := testDataset(30, 61)
	c := newTestCache(ds)
	if err := c.ReadSnapshot(bytes.NewReader(body)); err != nil {
		t.Fatalf("ReadSnapshot of verified body: %v", err)
	}
	if len(c.CachedSerials()) == 0 {
		t.Fatal("verified snapshot restored no cached queries")
	}

	// Corruption anywhere — body or trailer — must be detected.
	for _, pos := range []int{0, len(data) / 2, len(data) - 2} {
		mangled := append([]byte{}, data...)
		mangled[pos] ^= 0x20
		if _, err := splitChecked(mangled); !errors.Is(err, errSnapshotCorrupt) {
			t.Errorf("flipping byte %d: got %v, want errSnapshotCorrupt", pos, err)
		}
	}
	// Truncation eats the trailer (or part of it) — also corrupt.
	for _, cut := range []int{1, 10, len(data) / 2} {
		if _, err := splitChecked(data[:len(data)-cut]); !errors.Is(err, errSnapshotCorrupt) {
			t.Errorf("truncating %d bytes: got %v, want errSnapshotCorrupt", cut, err)
		}
	}
	if _, err := splitChecked(nil); !errors.Is(err, errSnapshotCorrupt) {
		t.Errorf("empty file: got %v, want errSnapshotCorrupt", err)
	}
}

// FuzzSplitChecked: whatever the bytes — a real snapshot, a truncated
// one, one with a flipped byte, or anything the fuzzer makes of them —
// splitChecked never panics, and it returns a body only when the body is
// data's prefix and what follows it is, byte for byte, the trailer line
// writeCheckedSnapshot writes for that body.
func FuzzSplitChecked(f *testing.F) {
	// A cold cache's snapshot: real writer output, small enough that the
	// fuzzer minimises each new input in moments, not in its whole budget.
	var buf bytes.Buffer
	if err := writeCheckedSnapshot(newTestCache(testDataset(10, 61)), &buf); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(data)
	for _, cut := range []int{1, 2, 10, len(data) / 2, len(data) - 1} {
		f.Add(data[:len(data)-cut])
	}
	for _, pos := range []int{0, len(data) / 2, len(data) - 12, len(data) - 2} {
		flipped := bytes.Clone(data)
		flipped[pos] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte(snapTrailerPrefix + "00000000 0\n"))
	// A real trailer with a byte after its length field.
	f.Add(append(bytes.Clone(data[:len(data)-1]), "A\n"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := splitChecked(data)
		if err != nil {
			if !errors.Is(err, errSnapshotCorrupt) {
				t.Fatalf("error %v does not wrap errSnapshotCorrupt", err)
			}
			return
		}
		if !bytes.HasPrefix(data, body) {
			t.Fatal("the body is not data's prefix")
		}
		want := fmt.Sprintf("%s%08x %d\n", snapTrailerPrefix, crc32.ChecksumIEEE(body), len(body))
		if got := string(data[len(body):]); got != want {
			t.Fatalf("accepted %q after a body of %d bytes, want the trailer %q", got, len(body), want)
		}
	})
}

// TestCorruptSnapshotQuarantined: a daemon pointed at a mangled snapshot
// file — or an intact one in the unbound version-1 format, which could
// belong to any dataset — must quarantine it to <path>.corrupt and start
// cold: never refuse to start, never serve from the data.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	data := testSnapshotBytes(t)
	ds := testDataset(30, 61)

	for name, mangle := range map[string]func([]byte) []byte{
		"corrupt":   func(d []byte) []byte { d = append([]byte{}, d...); d[len(d)/2] ^= 0xff; return d },
		"truncated": func(d []byte) []byte { return d[:len(d)*2/3] },
		"v1": func([]byte) []byte {
			body := "gcsnapshot 1\nserial 3\nadmission 0 0\nentries 0\ngraphs\n"
			return []byte(fmt.Sprintf("%s%s%08x %d\n", body, snapTrailerPrefix, crc32.ChecksumIEEE([]byte(body)), len(body)))
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.gcsnapshot")
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			c := newTestCache(ds)
			s := startServer(t, c, Options{SnapshotPath: path})

			if len(c.CachedSerials()) != 0 {
				t.Error("server loaded cached queries from a mangled snapshot")
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("mangled snapshot not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("mangled snapshot still under the live path: %v", err)
			}
			// Cold but serving: the daemon's job survived the bad file.
			if err := NewClient(s.Addr()).Healthz(context.Background()); err != nil {
				t.Errorf("Healthz after quarantine: %v", err)
			}
		})
	}
}

// TestPeriodicSnapshotBoundsCrashLoss: with SnapshotInterval set, the
// snapshot file appears while the daemon runs — so a SIGKILL (no
// graceful shutdown, no final write) loses at most one interval. The
// crash is simulated by loading the mid-run file into a fresh cache.
func TestPeriodicSnapshotBoundsCrashLoss(t *testing.T) {
	ds := testDataset(30, 63)
	queries := testWorkload(ds, 10, 64)
	path := filepath.Join(t.TempDir(), "cache.gcsnapshot")
	c := newTestCache(ds)
	s := startServer(t, c, Options{SnapshotPath: path, SnapshotInterval: 10 * time.Millisecond})

	cl := NewClient(s.Addr())
	ctx := context.Background()
	for i, q := range queries {
		if _, err := cl.Query(ctx, q); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	c.Flush()

	// Wait for a periodic write that observed the flushed entries — the
	// file exists and carries at least one cached query.
	deadline := time.Now().Add(5 * time.Second)
	var body []byte
	for {
		if time.Now().After(deadline) {
			t.Fatal("no usable periodic snapshot within 5s")
		}
		data, err := os.ReadFile(path)
		if err == nil {
			if b, err := splitChecked(data); err == nil && len(b) > 0 {
				c2 := newTestCache(ds)
				if c2.ReadSnapshot(bytes.NewReader(b)) == nil && len(c2.CachedSerials()) > 0 {
					body = b
					break
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The "restarted" cache serves the snapshot's entries.
	c3 := newTestCache(ds)
	if err := c3.ReadSnapshot(bytes.NewReader(body)); err != nil {
		t.Fatalf("ReadSnapshot after simulated crash: %v", err)
	}
	if len(c3.CachedSerials()) == 0 {
		t.Fatal("periodic snapshot restored no cached queries")
	}
}

// TestWarmFromPeer: snapshot shipping end to end — a cold server warms
// from a running peer's GET /snapshot via POST /warm and afterwards
// holds the peer's cached queries and reports the warm-up in /stats.
func TestWarmFromPeer(t *testing.T) {
	ds := testDataset(30, 65)
	queries := testWorkload(ds, 10, 66)
	ctx := context.Background()

	peerCache := newTestCache(ds)
	peer := startServer(t, peerCache, Options{})
	peerCl := NewClient(peer.Addr())
	for i, q := range queries {
		if _, err := peerCl.Query(ctx, q); err != nil {
			t.Fatalf("peer Query %d: %v", i, err)
		}
	}
	peerCache.Flush()
	if len(peerCache.CachedSerials()) == 0 {
		t.Fatal("peer cached nothing; the warm-up would be vacuous")
	}

	joinerCache := newTestCache(ds)
	joiner := startServer(t, joinerCache, Options{})
	cl := NewClient(joiner.Addr())

	warm, err := cl.Warm(ctx, peer.Addr())
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	if warm.From != peer.Addr() {
		t.Errorf("warm reply from %q, want %q", warm.From, peer.Addr())
	}
	if warm.Cached != len(peerCache.CachedSerials()) {
		t.Errorf("warm installed %d cached queries, peer holds %d", warm.Cached, len(peerCache.CachedSerials()))
	}
	if got := len(joinerCache.CachedSerials()); got != warm.Cached {
		t.Errorf("joiner cache holds %d queries, warm reported %d", got, warm.Cached)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Warmed != 1 {
		t.Errorf("stats report %d warm-ups, want 1", st.Warmed)
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Errorf("Healthz after warm-up: %v", err)
	}

	// The warmed cache answers identically to the peer.
	for i, q := range queries[:5] {
		pr, err := peerCl.Query(ctx, q)
		if err != nil {
			t.Fatalf("peer re-Query %d: %v", i, err)
		}
		jr, err := cl.Query(ctx, q)
		if err != nil {
			t.Fatalf("joiner Query %d: %v", i, err)
		}
		if !eq(pr.Answer, jr.Answer) {
			t.Errorf("query %d: joiner answer %v != peer %v", i, jr.Answer, pr.Answer)
		}
	}
}

// TestWarmFromBadPeer: a warm-up from a dead peer or a peer shipping a
// mangled stream must fail without touching the local cache.
func TestWarmFromBadPeer(t *testing.T) {
	ds := testDataset(30, 67)
	c := newTestCache(ds)
	s := startServer(t, c, Options{})
	cl := NewClient(s.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := cl.Warm(ctx, "127.0.0.1:1"); err == nil {
		t.Error("warming from a dead peer succeeded")
	}

	// A "peer" that streams garbage without a valid trailer.
	bad := startGarbageSnapshotPeer(t)
	if _, err := cl.Warm(ctx, bad); err == nil {
		t.Error("warming from a garbage stream succeeded")
	}
	if err := cl.Healthz(ctx); err != nil {
		t.Errorf("Healthz after failed warm-ups: %v", err)
	}
}

// startGarbageSnapshotPeer serves a /snapshot endpoint whose payload has
// no valid trailer.
func startGarbageSnapshotPeer(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("gcsnapshot 1\nnot a real snapshot\n"))
	})
	srv := &http.Server{Handler: mux}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String()
}

// TestQueriesDuringWarmSucceed: queries that arrive while WarmFrom swaps
// the cache wait for the swap instead of being refused. Through repeated
// warm-ups under concurrent /query and /querybatch traffic (the client
// does not retry), every request succeeds and every answer equals a
// direct cache's answer.
func TestQueriesDuringWarmSucceed(t *testing.T) {
	ds := testDataset(30, 68)
	queries := testWorkload(ds, 30, 69)
	ctx := context.Background()

	direct := newTestCache(ds)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = direct.Query(q).Answer
	}
	peerCache := newTestCache(ds)
	for _, q := range queries {
		peerCache.Query(q)
	}
	peer := startServer(t, peerCache, Options{})
	s := startServer(t, core.New(ggsx.New(ds, ggsx.Options{}),
		core.Options{CacheSize: 20, WindowSize: 5, AsyncRebuild: true}), Options{})
	cl := NewClient(s.Addr())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for i, q := range queries {
					if w%2 == 1 { // the batch path, one query per request
						res, err := cl.QueryBatch(ctx, queries[i:i+1])
						if err != nil || !eq(res[0].Answer, want[i]) {
							t.Errorf("batched query %d during warm-ups: %v, %v; want %v", i, err, res, want[i])
							return
						}
						continue
					}
					res, err := cl.Query(ctx, q)
					if err != nil || !eq(res.Answer, want[i]) {
						t.Errorf("query %d during warm-ups: %v, %v; want %v", i, err, res.Answer, want[i])
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if _, err := s.WarmFrom(ctx, peer.Addr()); err != nil {
			t.Errorf("WarmFrom %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if st, err := cl.Stats(ctx); err != nil || st.Warmed != 8 {
		t.Errorf("stats after warm-ups: %v, warmed %d, want 8", err, st.Warmed)
	}
}

// TestSnapshotHoldsEveryQueuedWindow: on an AsyncRebuild server, GET
// /snapshot holds every window the queries before it filled — the
// snapshot write runs the window barrier. A reply is written after its
// run's bookkeeping, so every answered query is in a window, and in the
// totals, before the snapshot is asked for.
func TestSnapshotHoldsEveryQueuedWindow(t *testing.T) {
	ds := testDataset(40, 71)
	queries := testWorkload(ds, 60, 72)
	c := core.New(ggsx.New(ds, ggsx.Options{}), core.Options{CacheSize: 100, WindowSize: 2, AsyncRebuild: true})
	s := startServer(t, c, Options{})
	cl := NewClient(s.Addr())
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		for i, q := range queries[round*10 : (round+1)*10] {
			if _, err := cl.Query(ctx, q); err != nil {
				t.Fatalf("round %d, query %d: %v", round, i, err)
			}
		}
		if got, want := c.Totals().Queries, int64((round+1)*10); got != want {
			t.Fatalf("round %d: totals count %d queries after %d replies", round, got, want)
		}
		body, err := fetchSnapshot(ctx, s.Addr())
		if err != nil {
			t.Fatalf("round %d: GET /snapshot: %v", round, err)
		}
		loaded := core.New(ggsx.New(ds, ggsx.Options{}), core.Options{CacheSize: 100})
		if err := loaded.ReadSnapshot(bytes.NewReader(body)); err != nil {
			t.Fatalf("round %d: loading the snapshot: %v", round, err)
		}
		c.Flush()
		if got, want := len(loaded.CachedSerials()), len(c.CachedSerials()); got != want {
			t.Errorf("round %d: snapshot holds %d entries, the flushed cache %d", round, got, want)
		}
	}
}
