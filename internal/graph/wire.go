package graph

import (
	"bufio"
	"bytes"
)

// The t/v/e text format doubles as the wire codec of the serving
// subsystem: gcserved and its clients exchange labelled graphs as EncodeText
// payloads embedded in JSON envelopes. EncodeText/DecodeText are the
// byte-slice entry points; they round-trip every valid graph, including
// the empty and the single-vertex graph (see the property and fuzz tests).

// EncodeText serialises graphs to the t/v/e wire format.
func EncodeText(graphs []*Graph) ([]byte, error) {
	var buf []byte
	for _, g := range graphs {
		buf = appendText(buf, g)
	}
	return buf, nil
}

// DecodeText parses graphs from the t/v/e wire format produced by
// EncodeText (or any writer of the standard text format). It walks data
// in place — what Parse's line scanner does, without the scanner's buffer:
// the cost is O(len(data)), which for a query body is tiny.
func DecodeText(data []byte) ([]*Graph, error) {
	var p textParser
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		if err := p.line(line); err != nil {
			return nil, err
		}
	}
	return p.finish()
}
