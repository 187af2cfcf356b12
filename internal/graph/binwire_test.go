package graph

import (
	"math/rand"
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
