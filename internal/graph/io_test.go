package graph

import (
	"bufio"
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	in := `
# a comment
t # 0
v 0 1
v 1 2
e 0 1

t # 5
v 0 3
`
	graphs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 2 {
		t.Fatalf("got %d graphs, want 2", len(graphs))
	}
	g0, g1 := graphs[0], graphs[1]
	if g0.ID() != 0 || g0.NumVertices() != 2 || g0.NumEdges() != 1 {
		t.Errorf("graph 0 parsed wrong: %v", g0)
	}
	if g0.Label(0) != 1 || g0.Label(1) != 2 {
		t.Errorf("graph 0 labels wrong")
	}
	if g1.ID() != 5 || g1.NumVertices() != 1 || g1.NumEdges() != 0 {
		t.Errorf("graph 1 parsed wrong: %v", g1)
	}
}

func TestParseAcceptsShortHeader(t *testing.T) {
	graphs, err := Parse(strings.NewReader("t 3\nv 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 1 || graphs[0].ID() != 3 {
		t.Fatalf("short header 't 3' not accepted: %v", graphs)
	}
}

// TestParseErrors pins the error text of every rejection, through both
// line sources: Parse's scanner and DecodeText's walk over the bytes.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"vertex before header", "v 0 1\n", "graph: line 1: vertex before graph header"},
		{"edge before header", "e 0 1\n", "graph: line 1: edge before graph header"},
		{"bad header", "t # x\n", `graph: line 1: bad graph id "x"`},
		{"malformed header", "t\n", `graph: line 1: malformed graph header "t"`},
		{"vertex out of order", "t # 0\nv 1 1\n", "graph: line 2: vertex id 1 out of order (want 0)"},
		{"malformed vertex", "t # 0\nv 0\n", `graph: line 2: malformed vertex line "v 0"`},
		{"bad vertex label", "t # 0\n  v 0 abc \r\n", `graph: line 2: malformed vertex line "v 0 abc"`},
		{"malformed edge", "t # 0\nv 0 1\ne 0\n", `graph: line 3: malformed edge line "e 0"`},
		{"edge out of range", "t # 0\nv 0 1\ne 0 7\n", "graph: graph: edge (0,7) endpoint out of range [0,1)"},
		{"self loop", "t # 0\nv 0 1\ne 0 0\n", "graph: graph: self loop on vertex 0"},
		{"unknown record", "t # 0\nx 1 2\n", `graph: line 2: unknown record type "x"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.in)); err == nil || err.Error() != tc.want {
				t.Errorf("Parse(%q) = %v, want %q", tc.in, err, tc.want)
			}
			if _, err := DecodeText([]byte(tc.in)); err == nil || err.Error() != tc.want {
				t.Errorf("DecodeText(%q) = %v, want %q", tc.in, err, tc.want)
			}
		})
	}
}

// TestParseLineCap pins the 1 MiB line cap from both sides, for both line
// sources: a 100 KB comment line parses (the scanner's buffer grows on
// demand), a line of 1 MiB is the scanner's too-long error.
func TestParseLineCap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		comment int
		want    error
	}{
		{"100 KB", 100 << 10, nil},
		{"one under the cap", maxLineBytes - 1, nil},
		{"at the cap", maxLineBytes, bufio.ErrTooLong},
	} {
		in := []byte("t # 4\nv 0 1\n#" + strings.Repeat("c", tc.comment-1) + "\nv 1 2\ne 0 1\n")
		for name, decode := range map[string]func() ([]*Graph, error){
			"Parse":      func() ([]*Graph, error) { return Parse(bytes.NewReader(in)) },
			"DecodeText": func() ([]*Graph, error) { return DecodeText(in) },
		} {
			gs, err := decode()
			if err != tc.want {
				t.Errorf("%s, comment line of %s: error %v, want %v", name, tc.name, err, tc.want)
			}
			if tc.want == nil && (len(gs) != 1 || gs[0].NumVertices() != 2 || gs[0].NumEdges() != 1) {
				t.Errorf("%s, comment line of %s: parsed %v, want one 2-vertex 1-edge graph", name, tc.name, gs)
			}
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g1 := cycle(1, 2, 3, 4)
	g1.SetID(0)
	g2 := path(9, 8, 7)
	g2.SetID(1)
	var buf bytes.Buffer
	if err := Write(&buf, []*Graph{g1, g2}); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost graphs: got %d", len(back))
	}
	if !back[0].StructurallyEqual(g1) || !back[1].StructurallyEqual(g2) {
		t.Error("round trip must preserve structure")
	}
}

func TestPropertyRoundTripRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var gs []*Graph
		for i := 0; i < 1+r.Intn(4); i++ {
			g := randomGraph(r, 1+r.Intn(12), 5, 0.3)
			g.SetID(int32(i))
			gs = append(gs, g)
		}
		var buf bytes.Buffer
		if err := Write(&buf, gs); err != nil {
			return false
		}
		back, err := Parse(&buf)
		if err != nil || len(back) != len(gs) {
			return false
		}
		for i := range gs {
			if !back[i].StructurallyEqual(gs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
