package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
)

// The text format is the de-facto standard used by the graph-query
// literature (gSpan, GraphGrepSX, Grapes all ship datasets in it):
//
//	t # <graph-id>
//	v <vertex-id> <label>
//	e <u> <v>
//
// Vertices of a graph must be declared before edges referencing them and
// must be numbered densely from 0 in order. Blank lines and lines starting
// with '#' are ignored.

// Write serialises graphs to w in the t/v/e text format.
func Write(w io.Writer, graphs []*Graph) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, g := range graphs {
		buf = appendText(buf[:0], g)
		bw.Write(buf) // a failed write is sticky: Flush reports it
	}
	return bw.Flush()
}

// appendText appends g in the t/v/e text format to dst.
func appendText(dst []byte, g *Graph) []byte {
	dst = append(dst, "t # "...)
	dst = strconv.AppendInt(dst, int64(g.ID()), 10)
	dst = append(dst, '\n')
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		dst = append(dst, "v "...)
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(g.Label(v)), 10)
		dst = append(dst, '\n')
	}
	g.Edges(func(u, v int32) {
		dst = append(dst, "e "...)
		dst = strconv.AppendInt(dst, int64(u), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, '\n')
	})
	return dst
}

// maxLineBytes caps one line of the text format; a longer one is
// bufio.ErrTooLong, from Parse and DecodeText alike.
const maxLineBytes = 1 << 20

// Parse reads graphs from r in the t/v/e text format.
func Parse(r io.Reader) ([]*Graph, error) {
	var p textParser
	sc := bufio.NewScanner(r)
	// No initial buffer: the scanner starts at its default 4 KB and grows
	// towards the line cap only for input that needs it.
	sc.Buffer(nil, maxLineBytes)
	for sc.Scan() {
		if err := p.line(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.finish()
}

// textParser consumes the text format a line at a time — from Parse's
// scanner or straight off DecodeText's byte slice — without allocating
// per line: fields are sub-slices of the line.
type textParser struct {
	graphs []*Graph
	b      *Builder
	lineNo int
}

// flush builds the graph whose records have been read so far.
func (p *textParser) flush() error {
	if p.b == nil {
		return nil
	}
	g, err := p.b.Build()
	if err != nil {
		return err
	}
	p.graphs = append(p.graphs, g)
	p.b = nil
	return nil
}

func (p *textParser) finish() ([]*Graph, error) {
	if err := p.flush(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	return p.graphs, nil
}

// splitFields splits line around runs of white space, as strings.Fields
// does, storing the first len(dst) fields and counting all of them.
func splitFields(line []byte, dst *[3][]byte) (n int) {
	for {
		line = bytes.TrimLeftFunc(line, unicode.IsSpace)
		if len(line) == 0 {
			return n
		}
		end := bytes.IndexFunc(line, unicode.IsSpace)
		if end < 0 {
			end = len(line)
		}
		if n < len(dst) {
			dst[n] = line[:end]
		}
		n++
		line = line[end:]
	}
}

// line parses one line (without its terminator) of the text format.
func (p *textParser) line(line []byte) error {
	p.lineNo++
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return nil
	}
	var fields [3][]byte
	n := splitFields(line, &fields)
	switch string(fields[0]) {
	case "t":
		if err := p.flush(); err != nil {
			return fmt.Errorf("graph: line %d: %w", p.lineNo, err)
		}
		// Accept both "t # <id>" and "t <id>".
		var idField []byte
		switch {
		case n >= 3 && string(fields[1]) == "#":
			idField = fields[2]
		case n == 2:
			idField = fields[1]
		default:
			return fmt.Errorf("graph: line %d: malformed graph header %q", p.lineNo, line)
		}
		id, err := strconv.ParseInt(string(idField), 10, 32)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad graph id %q", p.lineNo, idField)
		}
		p.b = NewBuilder().SetID(int32(id))
	case "v":
		if p.b == nil {
			return fmt.Errorf("graph: line %d: vertex before graph header", p.lineNo)
		}
		if n != 3 {
			return fmt.Errorf("graph: line %d: malformed vertex line %q", p.lineNo, line)
		}
		vid, err1 := strconv.ParseInt(string(fields[1]), 10, 32)
		lbl, err2 := strconv.ParseUint(string(fields[2]), 10, 16)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("graph: line %d: malformed vertex line %q", p.lineNo, line)
		}
		if int(vid) != p.b.NumVertices() {
			return fmt.Errorf("graph: line %d: vertex id %d out of order (want %d)", p.lineNo, vid, p.b.NumVertices())
		}
		p.b.AddVertex(Label(lbl))
	case "e":
		if p.b == nil {
			return fmt.Errorf("graph: line %d: edge before graph header", p.lineNo)
		}
		if n < 3 {
			return fmt.Errorf("graph: line %d: malformed edge line %q", p.lineNo, line)
		}
		u, err1 := strconv.ParseInt(string(fields[1]), 10, 32)
		v, err2 := strconv.ParseInt(string(fields[2]), 10, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("graph: line %d: malformed edge line %q", p.lineNo, line)
		}
		p.b.AddEdge(int32(u), int32(v))
	default:
		return fmt.Errorf("graph: line %d: unknown record type %q", p.lineNo, fields[0])
	}
	return nil
}
