package graph

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestWireRoundTripProperty is the wire codec's identity property: for
// random collections of labelled graphs — including empty and
// single-vertex graphs — DecodeText(EncodeText(gs)) reproduces every
// graph structurally, with its ID.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 50; round++ {
		var gs []*Graph
		// Always exercise the degenerate shapes alongside random ones.
		gs = append(gs, NewBuilder().SetID(0).MustBuild()) // empty graph
		one := NewBuilder().SetID(1)
		one.AddVertex(Label(rng.Intn(7)))
		gs = append(gs, one.MustBuild()) // single vertex
		for i := 0; i < rng.Intn(6); i++ {
			g := randomGraph(rng, rng.Intn(13), 7, 0.3)
			g.SetID(int32(len(gs)))
			gs = append(gs, g)
		}

		data, err := EncodeText(gs)
		if err != nil {
			t.Fatalf("round %d: EncodeText: %v", round, err)
		}
		back, err := DecodeText(data)
		if err != nil {
			t.Fatalf("round %d: DecodeText: %v\npayload:\n%s", round, err, data)
		}
		if len(back) != len(gs) {
			t.Fatalf("round %d: %d graphs decoded from %d encoded", round, len(back), len(gs))
		}
		for i := range gs {
			if back[i].ID() != gs[i].ID() {
				t.Fatalf("round %d graph %d: ID %d != %d", round, i, back[i].ID(), gs[i].ID())
			}
			if !back[i].StructurallyEqual(gs[i]) {
				t.Fatalf("round %d graph %d: decoded graph differs structurally\npayload:\n%s", round, i, data)
			}
		}
	}
}

// sameGraph is the fuzzers' identity check on a codec round trip: the same
// adjacency under the identity mapping, and edge signatures that dominate
// each other, so the signature Build derives survives the codec too.
func sameGraph(a, b *Graph) bool {
	return a.StructurallyEqual(b) && a.EdgesDominate(b) && b.EdgesDominate(a)
}

// FuzzWireRoundTrip feeds arbitrary bytes to the decoder; whenever they
// parse, re-encoding and re-decoding must reproduce the same graphs. Run
// as a plain test it exercises the seed corpus; `go test -fuzz` explores
// further.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte("t # 0\n"))
	f.Add([]byte("t # 1\nv 0 3\n"))
	f.Add([]byte("t # 2\nv 0 1\nv 1 2\ne 0 1\n"))
	f.Add([]byte("t # -1\nv 0 0\nv 1 0\nv 2 5\ne 0 1\ne 1 2\n\n# comment\nt 7\nv 0 65535\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := DecodeText(data)
		if err != nil {
			return // invalid payloads may be rejected, never mis-parsed
		}
		enc, err := EncodeText(gs)
		if err != nil {
			t.Fatalf("EncodeText of decoded graphs: %v", err)
		}
		back, err := DecodeText(enc)
		if err != nil {
			t.Fatalf("DecodeText of re-encoded graphs: %v\npayload:\n%s", err, enc)
		}
		if len(back) != len(gs) {
			t.Fatalf("re-decode produced %d graphs, want %d", len(back), len(gs))
		}
		for i := range gs {
			if back[i].ID() != gs[i].ID() || !sameGraph(back[i], gs[i]) {
				t.Fatalf("graph %d not identical after re-encode\npayload:\n%s", i, enc)
			}
		}
	})
}

// FuzzDecodeTextMatchesParse holds the two line sources together:
// DecodeText's walk over the byte slice and Parse's scanner must accept the
// same inputs, produce the same graphs and reject with the same text.
func FuzzDecodeTextMatchesParse(f *testing.F) {
	f.Add([]byte("t # 2\nv 0 1\nv 1 2\ne 0 1\n"))
	f.Add([]byte("t 7\r\nv 0 65535\r\n\r\n  # comment\nt # -1"))
	f.Add([]byte("t # 0\nv 0 1\u00a0\ne\t0 0"))
	f.Add([]byte("t # 0\nv 0 65536\n"))
	f.Add([]byte("\xff 1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := DecodeText(data)
		want, wantErr := Parse(bytes.NewReader(data))
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("DecodeText error %v, Parse error %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeText produced %d graphs, Parse %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID() != want[i].ID() || !sameGraph(got[i], want[i]) {
				t.Fatalf("graph %d differs between DecodeText and Parse", i)
			}
		}
	})
}

// TestDecodeTextAllocatedBytes bounds what decoding a query body costs the
// heap: O(body), not a scanner buffer sized for a dataset file (≈70 KB per
// call when Parse opened with a 64 KB buffer, a third of everything the
// serving path allocated per request).
func TestDecodeTextAllocatedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var g *Graph
	for g == nil || g.NumEdges() != 20 {
		g = randomGraph(rng, 16, 7, 0.2)
	}
	data, err := EncodeText([]*Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecodeText(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 8<<10 {
		t.Errorf("DecodeText of a 20-edge query (%d bytes) allocates %d bytes/op, want <= 8 KB", len(data), perOp)
	} else {
		t.Logf("DecodeText of a 20-edge query (%d bytes): %d bytes/op", len(data), perOp)
	}
}
