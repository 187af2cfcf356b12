package graph

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestBinaryWireRoundTripProperty is the binary codec's identity
// property: DecodeBinary(EncodeBinary(gs)) reproduces every graph
// structurally, with its ID — over random collections that always
// include the degenerate shapes (empty graph, single vertex) and a
// dense graph.
func TestBinaryWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 50; round++ {
		gs := testGraphSet(rng)

		data, err := EncodeBinary(gs)
		if err != nil {
			t.Fatalf("round %d: EncodeBinary: %v", round, err)
		}
		back, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("round %d: DecodeBinary: %v", round, err)
		}
		if len(back) != len(gs) {
			t.Fatalf("round %d: %d graphs decoded from %d encoded", round, len(back), len(gs))
		}
		for i := range gs {
			if back[i].ID() != gs[i].ID() {
				t.Fatalf("round %d graph %d: ID %d != %d", round, i, back[i].ID(), gs[i].ID())
			}
			if !back[i].StructurallyEqual(gs[i]) {
				t.Fatalf("round %d graph %d: decoded graph differs structurally", round, i)
			}
		}
	}
}

// TestCrossCodecEquivalence is the cross-codec property the serving
// stack's negotiation relies on: for any graph set, the binary
// round-trip and the text round-trip land on identical graphs — same
// IDs, same structure, and identical canonical re-encodings — so a
// query answered from a binary request is the same query a text client
// would have sent.
func TestCrossCodecEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 50; round++ {
		gs := testGraphSet(rng)

		bin, err := EncodeBinary(gs)
		if err != nil {
			t.Fatalf("round %d: EncodeBinary: %v", round, err)
		}
		text, err := EncodeText(gs)
		if err != nil {
			t.Fatalf("round %d: EncodeText: %v", round, err)
		}
		fromBin, err := DecodeBinary(bin)
		if err != nil {
			t.Fatalf("round %d: DecodeBinary: %v", round, err)
		}
		fromText, err := DecodeText(text)
		if err != nil {
			t.Fatalf("round %d: DecodeText: %v", round, err)
		}
		if len(fromBin) != len(fromText) {
			t.Fatalf("round %d: binary decoded %d graphs, text %d", round, len(fromBin), len(fromText))
		}
		for i := range fromBin {
			if fromBin[i].ID() != fromText[i].ID() {
				t.Fatalf("round %d graph %d: binary ID %d != text ID %d", round, i, fromBin[i].ID(), fromText[i].ID())
			}
			if !fromBin[i].StructurallyEqual(fromText[i]) {
				t.Fatalf("round %d graph %d: binary and text round-trips differ structurally", round, i)
			}
		}
		// The decoded sets must re-encode identically in both codecs —
		// the strongest cheap witness that the two paths carry the same
		// graphs byte for byte.
		reBin, err := EncodeBinary(fromText)
		if err != nil {
			t.Fatalf("round %d: re-encoding text round-trip as binary: %v", round, err)
		}
		if string(reBin) != string(bin) {
			t.Fatalf("round %d: binary encoding of the text round-trip differs from the original binary frame", round)
		}
		reText, err := EncodeText(fromBin)
		if err != nil {
			t.Fatalf("round %d: re-encoding binary round-trip as text: %v", round, err)
		}
		if string(reText) != string(text) {
			t.Fatalf("round %d: text encoding of the binary round-trip differs from the original text payload", round)
		}
	}
}

// TestBinaryWireSmallerOnDense pins the codec's reason to exist: on a
// dense graph the binary frame is strictly smaller than the t/v/e text.
func TestBinaryWireSmallerOnDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 40, 5, 0.8)
	g.SetID(12345)
	bin, err := EncodeBinary([]*Graph{g})
	if err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	text, err := EncodeText([]*Graph{g})
	if err != nil {
		t.Fatalf("EncodeText: %v", err)
	}
	if len(bin) >= len(text) {
		t.Fatalf("binary frame %d bytes, text %d — binary must be strictly smaller", len(bin), len(text))
	}
}

// testGraphSet builds one property-test collection: the degenerate
// shapes (empty, single-vertex), a dense graph, and random graphs.
func testGraphSet(rng *rand.Rand) []*Graph {
	var gs []*Graph
	gs = append(gs, NewBuilder().SetID(0).MustBuild()) // empty graph
	one := NewBuilder().SetID(1)
	one.AddVertex(Label(rng.Intn(7)))
	gs = append(gs, one.MustBuild()) // single vertex
	dense := randomGraph(rng, 8+rng.Intn(8), 3, 0.9)
	dense.SetID(2)
	gs = append(gs, dense)
	for i := 0; i < rng.Intn(6); i++ {
		g := randomGraph(rng, rng.Intn(13), 7, 0.3)
		g.SetID(int32(len(gs)))
		gs = append(gs, g)
	}
	return gs
}

// FuzzBinaryWireRoundTrip feeds arbitrary bytes to the binary decoder;
// whenever they parse, re-encoding and re-decoding must reproduce the
// same graphs. Run as a plain test it exercises the seed corpus;
// `go test -fuzz` explores further.
func FuzzBinaryWireRoundTrip(f *testing.F) {
	seed := func(gs []*Graph) {
		if data, err := EncodeBinary(gs); err == nil {
			f.Add(data)
		}
	}
	seed(nil)
	seed([]*Graph{NewBuilder().SetID(0).MustBuild()})
	two := NewBuilder().SetID(-1)
	two.AddVertex(3)
	two.AddVertex(65535)
	two.AddEdge(0, 1)
	seed([]*Graph{two.MustBuild()})
	rng := rand.New(rand.NewSource(47))
	seed(testGraphSet(rng))
	f.Add([]byte("GCBF\x01\x00"))
	f.Add([]byte("not a frame"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gs, err := DecodeBinary(data)
		if err != nil {
			return // invalid frames may be rejected, never mis-parsed
		}
		enc, err := EncodeBinary(gs)
		if err != nil {
			t.Fatalf("EncodeBinary of decoded graphs: %v", err)
		}
		back, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("DecodeBinary of re-encoded frame: %v", err)
		}
		if len(back) != len(gs) {
			t.Fatalf("re-decode produced %d graphs, want %d", len(back), len(gs))
		}
		for i := range gs {
			if back[i].ID() != gs[i].ID() || !sameGraph(back[i], gs[i]) {
				t.Fatalf("graph %d not identical after re-encode", i)
			}
		}
	})
}

// uvarints appends each value as a uvarint: a body written by hand.
func uvarints(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// hostileFrames are frames every reader must refuse, each with one fault
// after a valid header; a body's leading 0 is graph id 0.
func hostileFrames() map[string][]byte {
	frame := func(bodies ...[]byte) []byte {
		bs := make([]Body, len(bodies))
		for i, b := range bodies {
			bs[i] = Body{Data: b}
		}
		return EncodeFrame(bs)
	}
	valid := uvarints(0, 1, 5, 2, 0, 0, 1, 0, 0) // 5-5, one edge
	return map[string][]byte{
		"bad magic":            append([]byte("GCBX"), frame(valid)[4:]...),
		"bad version":          append([]byte("GCBF\x02"), frame(valid)[5:]...),
		"truncated body":       frame(valid)[:len(frame(valid))-1],
		"truncated pair":       frame(uvarints(0, 1, 5, 2, 0, 0, 1, 0)),
		"label above 65535":    frame(uvarints(0, 1, 65536, 1, 0, 0)),
		"label index past L":   frame(uvarints(0, 1, 5, 1, 1, 0)),
		"endpoint past n":      frame(uvarints(0, 1, 5, 2, 0, 0, 1, 0, 1)),
		"delta past n":         frame(uvarints(0, 1, 5, 2, 0, 0, 1, 3, 0)),
		"trailing body bytes":  frame(append(valid, 0)),
		"trailing frame bytes": append(frame(valid), 0),
		"table not ascending":  frame(uvarints(0, 2, 7, 5, 2, 0, 1, 0)),
		"table repeats":        frame(uvarints(0, 2, 5, 5, 2, 0, 1, 0)),
		"id out of int32":      frame(binary.AppendVarint(nil, 1<<31)),
		"non-minimal count":    append([]byte("GCBF\x01\x81\x00"), frame(valid)[6:]...),
		"non-minimal length":   append(append([]byte("GCBF\x01\x01"), 0x80|byte(len(valid)), 0), valid...),
		"more graphs counted":  append([]byte("GCBF\x01\x02"), frame(valid)[6:]...),
	}
}

// TestBinaryFrameRejects: every reader of a frame refuses each hostile
// frame — the decoder, and the splitter a router keys and forwards by.
func TestBinaryFrameRejects(t *testing.T) {
	for name, data := range hostileFrames() {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: DecodeBinary accepted %x", name, data)
		}
		if _, err := SplitBinary(data); err == nil {
			t.Errorf("%s: SplitBinary accepted %x", name, data)
		}
	}
}

// TestDecodeBinaryUnusedTableLabels: a body whose label table names labels
// no vertex carries decodes to the graph its vertices and edges describe,
// with only the used labels in its signature and summary.
func TestDecodeBinaryUnusedTableLabels(t *testing.T) {
	// Table [1 5 9], two vertices labelled 5, one edge.
	body := uvarints(0, 3, 1, 5, 9, 2, 1, 1, 1, 0, 0)
	gs, err := DecodeBinary(EncodeFrame([]Body{{Data: body}}))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder().SetID(0)
	b.AddVertex(5)
	b.AddVertex(5)
	b.AddEdge(0, 1)
	want := b.MustBuild()
	checkSignature(t, "unused table labels", gs[0], [][2]int32{{0, 1}})
	if !gs[0].StructurallyEqual(want) || gs[0].sum != want.sum || gs[0].IsoKey() != want.IsoKey() {
		t.Errorf("decoded %v, want the graph %v", gs[0], want)
	}
}

// FuzzFrameBodies pins the router's view of a frame to the decoder's: for
// any bytes, SplitBinary accepts exactly what DecodeBinary accepts, each
// body's key is its decoded graph's IsoKey, and EncodeFrame of the bodies
// is the input, byte for byte.
func FuzzFrameBodies(f *testing.F) {
	seed := func(gs []*Graph) {
		if data, err := EncodeBinary(gs); err == nil {
			f.Add(data)
		}
	}
	seed(nil)
	seed([]*Graph{NewBuilder().SetID(0).MustBuild()})
	two := NewBuilder().SetID(-1)
	two.AddVertex(3)
	two.AddVertex(65535)
	two.AddEdge(0, 1)
	seed([]*Graph{two.MustBuild()})
	seed(testGraphSet(rand.New(rand.NewSource(47))))
	f.Add([]byte("GCBF\x01\x00"))
	f.Add([]byte("not a frame"))
	hostile := hostileFrames()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies, serr := SplitBinary(data)
		gs, derr := DecodeBinary(data)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("SplitBinary error %v, DecodeBinary error %v", serr, derr)
		}
		if serr != nil {
			return
		}
		if len(bodies) != len(gs) {
			t.Fatalf("%d bodies, %d graphs", len(bodies), len(gs))
		}
		for i, g := range gs {
			if bodies[i].Key != g.IsoKey() {
				t.Fatalf("body %d: key %x, IsoKey %x", i, bodies[i].Key, g.IsoKey())
			}
		}
		if back := EncodeFrame(bodies); !bytes.Equal(back, data) {
			t.Fatalf("re-framed bodies %x, input %x", back, data)
		}
	})
}
