package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The binary wire format is the compact alternative to the t/v/e text
// codec for moving graphs over the network (negotiated at the serving
// boundary via Content-Type/Accept; see internal/server). It is a
// length-prefixed framed format:
//
//	magic   "GCBF" (4 bytes)
//	version 0x01   (1 byte)
//	count   uvarint — number of graphs in the frame
//	graphs  count × (uvarint body length, body)
//
// Each graph body is self-contained:
//
//	id       zigzag varint (graph IDs may be negative, e.g. the
//	         Builder's unset -1)
//	labels   uvarint table size L, then L uvarint label values — the
//	         graph's distinct labels, strictly ascending
//	vertices uvarint vertex count n, then n uvarint indices into the
//	         label table (graphs reuse few labels over many vertices,
//	         so indices are almost always one byte)
//	edges    uvarint edge count m, then m delta-encoded pairs in the
//	         lexicographic (u ascending, then v ascending, u < v)
//	         order Graph.Edges iterates: du = u − prevU as uvarint,
//	         then dv = v − base − 1 as uvarint, where base is prevV
//	         when du == 0 and u otherwise. Both deltas are
//	         non-negative by construction, and consecutive edges of
//	         dense graphs encode as two bytes.
//
// The canonical edge order is what lets a reader fill the CSR adjacency
// in one pass with no sort: edges arrive strictly ascending, so every
// vertex meets its lower neighbours in ascending order before its upper
// ones, and appending each edge to both endpoints' lists leaves every
// list sorted and free of duplicates. The ascending label table gives the
// label signature the same way, as a count per table entry.
//
// The per-graph length prefix lets a reader skip or bound-check a graph
// without decoding it, and makes torn frames detectable. It also lets a
// router forward a graph without decoding it: SplitBinary returns each
// body as the frame carries it with the graph's IsoKey, and EncodeFrame
// frames any run of bodies again. The frame's own uvarints (count and
// body lengths) must be minimally encoded, so a frame re-assembled from
// its bodies is the frame itself, byte for byte. Decoding a frame and
// re-encoding it reproduces its graphs exactly — same IDs, labels,
// vertices and edges — which the cross-codec property tests in
// binwire_test.go pin against the text codec.

// binMagic prefixes every binary wire frame; binVersion is bumped on
// incompatible layout changes.
var binMagic = [4]byte{'G', 'C', 'B', 'F'}

const binVersion = 0x01

// appendFrameHeader appends the magic, version and graph count.
func appendFrameHeader(dst []byte, count int) []byte {
	dst = append(dst, binMagic[:]...)
	dst = append(dst, binVersion)
	return binary.AppendUvarint(dst, uint64(count))
}

// EncodeBinary serialises graphs in the binary wire format.
func EncodeBinary(gs []*Graph) ([]byte, error) {
	buf := appendFrameHeader(make([]byte, 0, 64*len(gs)+8), len(gs))
	var body []byte
	for _, g := range gs {
		if g == nil {
			return nil, fmt.Errorf("graph: encoding binary frame: nil graph")
		}
		body = appendGraphBody(body[:0], g)
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		buf = append(buf, body...)
	}
	return buf, nil
}

// appendGraphBody encodes one graph's body sections onto dst.
func appendGraphBody(dst []byte, g *Graph) []byte {
	dst = binary.AppendVarint(dst, int64(g.ID()))

	// Label table: the graph's distinct labels, ascending, so vertex
	// labels become small table indices.
	n := g.NumVertices()
	var table []Label
	for v := int32(0); int(v) < n; v++ {
		l := g.Label(v)
		if i, ok := slices.BinarySearch(table, l); !ok {
			table = slices.Insert(table, i, l)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	for _, l := range table {
		dst = binary.AppendUvarint(dst, uint64(l))
	}

	dst = binary.AppendUvarint(dst, uint64(n))
	for v := int32(0); int(v) < n; v++ {
		i, _ := slices.BinarySearch(table, g.Label(v))
		dst = binary.AppendUvarint(dst, uint64(i))
	}

	dst = binary.AppendUvarint(dst, uint64(g.NumEdges()))
	prevU, prevV := int32(0), int32(0)
	g.Edges(func(u, v int32) {
		dst = binary.AppendUvarint(dst, uint64(u-prevU))
		base := prevV
		if u != prevU {
			base = u
		}
		dst = binary.AppendUvarint(dst, uint64(v-base-1))
		prevU, prevV = u, v
	})
	return dst
}

// Body is one graph of a binary frame in its wire form: the body bytes
// exactly as the frame carries them, and the graph's IsoKey.
type Body struct {
	Data []byte
	Key  uint64
}

// SplitBinary returns the bodies of a binary frame in order, each keyed
// with its graph's IsoKey, without building a graph. It checks each body
// as DecodeBinary does, so it accepts exactly the frames DecodeBinary
// accepts. The bodies alias frame.
func SplitBinary(frame []byte) ([]Body, error) {
	fr, count, err := openFrame(frame)
	if err != nil {
		return nil, err
	}
	bodies := make([]Body, count)
	for i := range bodies {
		data, err := fr.body(i)
		if err != nil {
			return nil, err
		}
		key, err := bodyKey(data)
		if err != nil {
			return nil, fmt.Errorf("graph: binary frame: graph %d: %w", i, err)
		}
		bodies[i] = Body{Data: data, Key: key}
	}
	if err := fr.end(); err != nil {
		return nil, err
	}
	return bodies, nil
}

// EncodeBodies encodes each graph as a binary frame body keyed with its
// IsoKey: what SplitBinary returns for EncodeBinary(gs).
func EncodeBodies(gs []*Graph) []Body {
	bodies := make([]Body, len(gs))
	for i, g := range gs {
		bodies[i] = Body{Data: appendGraphBody(nil, g), Key: g.IsoKey()}
	}
	return bodies
}

// EncodeFrame frames bodies as one binary frame. Over SplitBinary's
// bodies of a frame it returns that frame, byte for byte.
func EncodeFrame(bodies []Body) []byte {
	size := len(binMagic) + 1 + binary.MaxVarintLen64
	for _, b := range bodies {
		size += binary.MaxVarintLen64 + len(b.Data)
	}
	buf := appendFrameHeader(make([]byte, 0, size), len(bodies))
	for _, b := range bodies {
		buf = binary.AppendUvarint(buf, uint64(len(b.Data)))
		buf = append(buf, b.Data...)
	}
	return buf
}

// DecodeBinary parses a binary wire frame produced by EncodeBinary.
func DecodeBinary(data []byte) ([]*Graph, error) {
	fr, count, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	gs := make([]*Graph, count)
	for i := range gs {
		body, err := fr.body(i)
		if err != nil {
			return nil, err
		}
		if gs[i], err = decodeGraphBody(body); err != nil {
			return nil, fmt.Errorf("graph: binary frame: graph %d: %w", i, err)
		}
	}
	if err := fr.end(); err != nil {
		return nil, err
	}
	return gs, nil
}

// binReader walks a frame with bounds checking.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("graph: binary frame truncated at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("graph: binary frame truncated at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint section count and sanity-bounds it: every
// counted element occupies at least one encoded byte, so a count beyond
// the remaining frame is corruption (or a hostile length), not a short
// read to grow into.
func (r *binReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)-r.off) {
		return 0, fmt.Errorf("graph: binary frame: %s count %d exceeds remaining %d bytes", what, v, len(r.data)-r.off)
	}
	return int(v), nil
}

// frameReader walks the bodies of a binary frame.
type frameReader struct{ binReader }

// openFrame checks a frame's magic and version and reads its graph
// count.
func openFrame(data []byte) (frameReader, int, error) {
	if len(data) < len(binMagic)+1 {
		return frameReader{}, 0, fmt.Errorf("graph: binary frame too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != binMagic {
		return frameReader{}, 0, fmt.Errorf("graph: bad binary frame magic %q", data[:4])
	}
	if data[4] != binVersion {
		return frameReader{}, 0, fmt.Errorf("graph: unsupported binary frame version %d (want %d)", data[4], binVersion)
	}
	fr := frameReader{binReader{data: data, off: 5}}
	if err := fr.minimal(); err != nil {
		return frameReader{}, 0, err
	}
	count, err := fr.count("graph")
	if err != nil {
		return frameReader{}, 0, err
	}
	// A graph takes at least five bytes — its length prefix, then its id,
	// label table size, vertex count and edge count — so a larger count is
	// refused before anything is sized by it.
	if count > (len(data)-fr.off)/5 {
		return frameReader{}, 0, fmt.Errorf("graph: binary frame: %d graphs cannot fit in %d bytes", count, len(data)-fr.off)
	}
	return fr, count, nil
}

// minimal rejects a non-minimal encoding of the frame uvarint at the
// reader's offset: a last byte of zero after a continuation byte adds
// nothing to the value.
func (fr *frameReader) minimal() error {
	_, n := binary.Uvarint(fr.data[fr.off:])
	if n > 1 && fr.data[fr.off+n-1] == 0 {
		return fmt.Errorf("graph: binary frame: non-minimal uvarint at byte %d", fr.off)
	}
	return nil
}

// body returns the frame's next graph body, the gi-th.
func (fr *frameReader) body(gi int) ([]byte, error) {
	if err := fr.minimal(); err != nil {
		return nil, err
	}
	bodyLen, err := fr.uvarint()
	if err != nil {
		return nil, err
	}
	if bodyLen > uint64(len(fr.data)-fr.off) {
		return nil, fmt.Errorf("graph: binary frame: graph %d body length %d exceeds remaining %d bytes", gi, bodyLen, len(fr.data)-fr.off)
	}
	body := fr.data[fr.off : fr.off+int(bodyLen)]
	fr.off += int(bodyLen)
	return body, nil
}

// end rejects bytes after the last body.
func (fr *frameReader) end() error {
	if fr.off != len(fr.data) {
		return fmt.Errorf("graph: binary frame: %d trailing bytes", len(fr.data)-fr.off)
	}
	return nil
}

// parsedBody is one graph body as parseBody read and checked it.
type parsedBody struct {
	id int32
	// table is the label table, strictly ascending; uses[i] counts the
	// vertices labelled table[i].
	table []Label
	uses  []int32
	n, m  int
	// edges is the body's m delta-coded edge pairs, which end it.
	edges []byte
}

// parseBody reads and checks one graph body: every section in range, the
// label table strictly ascending, every label index inside the table,
// every edge endpoint below n, and nothing after the last edge. table,
// uses and labels are scratch for the label table, its per-entry vertex
// counts and the vertex labels, each grown when shorter than the body
// needs; the labels come back apart from the rest so that a decoder can
// keep them while the rest stays scratch. The edge pairs are checked here
// and read again by edgeReader.
func parseBody(data []byte, table []Label, uses []int32, labels []Label) (parsedBody, []Label, error) {
	var p parsedBody
	r := &binReader{data: data}
	id, err := r.varint()
	if err != nil {
		return p, nil, err
	}
	if id < math.MinInt32 || id > math.MaxInt32 {
		return p, nil, fmt.Errorf("graph id %d out of int32 range", id)
	}
	p.id = int32(id)
	tableLen, err := r.count("label table")
	if err != nil {
		return p, nil, err
	}
	table, uses = grow(table, tableLen), grow(uses, tableLen)
	clear(uses)
	for i := range table {
		l, err := r.uvarint()
		if err != nil {
			return p, nil, err
		}
		if l > math.MaxUint16 {
			return p, nil, fmt.Errorf("label %d out of uint16 range", l)
		}
		if i > 0 && Label(l) <= table[i-1] {
			return p, nil, fmt.Errorf("label table entry %d: %d after %d, want strictly ascending", i, l, table[i-1])
		}
		table[i] = Label(l)
	}
	if p.n, err = r.count("vertex"); err != nil {
		return p, nil, err
	}
	labels = grow(labels, p.n)
	for v := range labels {
		i, err := r.uvarint()
		if err != nil {
			return p, nil, err
		}
		if i >= uint64(tableLen) {
			return p, nil, fmt.Errorf("vertex %d: label index %d beyond table of %d", v, i, tableLen)
		}
		labels[v] = table[i]
		uses[i]++
	}
	if p.m, err = r.count("edge"); err != nil {
		return p, nil, err
	}
	p.table, p.uses, p.edges = table, uses, data[r.off:]
	er := p.edgeReader()
	for e := 0; e < p.m; e++ {
		if err := er.next(); err != nil {
			return p, nil, fmt.Errorf("edge %d: %w", e, err)
		}
	}
	if er.off != len(er.data) {
		return p, nil, fmt.Errorf("%d trailing body bytes", len(er.data)-er.off)
	}
	return p, labels, nil
}

// grow returns s resliced to length n, or a new slice when s is too
// short to hold n.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// edgeReader reads the edge pairs of a body in stream order, each into
// (u, v).
type edgeReader struct {
	binReader
	n    int64
	u, v int64
}

func (p *parsedBody) edgeReader() edgeReader {
	return edgeReader{binReader: binReader{data: p.edges}, n: int64(p.n)}
}

// next reads one edge pair.
func (er *edgeReader) next() error {
	var du, dv uint64
	if d := er.data[er.off:]; len(d) >= 2 && d[0]|d[1] < 0x80 {
		// Both deltas fit one byte, as nearly all do.
		du, dv = uint64(d[0]), uint64(d[1])
		er.off += 2
	} else {
		var err error
		if du, err = er.uvarint(); err != nil {
			return err
		}
		if dv, err = er.uvarint(); err != nil {
			return err
		}
	}
	// Deltas beyond the vertex count cannot name a valid endpoint;
	// rejecting them before the additions also rules out overflow on
	// hostile frames.
	if du > uint64(er.n) || dv > uint64(er.n) {
		return fmt.Errorf("delta (%d, %d) beyond %d vertices", du, dv, er.n)
	}
	base := er.v
	if du != 0 {
		er.u += int64(du)
		base = er.u
	}
	er.v = base + int64(dv) + 1
	if er.u >= er.n || er.v >= er.n {
		return fmt.Errorf("endpoint (%d, %d) beyond %d vertices", er.u, er.v, er.n)
	}
	return nil
}

// decodeGraphBody builds the graph one body encodes, straight into its
// final arrays: the labels, one block holding the CSR offsets and
// neighbour lists, and the two signatures.
func decodeGraphBody(data []byte) (*Graph, error) {
	var table [64]Label
	var uses [64]int32
	p, labels, err := parseBody(data, table[:0], uses[:0], nil)
	if err != nil {
		return nil, err
	}
	n, m := p.n, p.m
	adj := make([]int32, n+1+2*m)
	off, nbr := adj[:n+1:n+1], adj[n+1:]
	// off[v] first counts v's edge ends, then (prefix sums) marks the
	// start of v's list and serves as its fill cursor, which leaves it at
	// the list's end — the next list's start, so one shift restores it.
	// Edges arrive strictly ascending, so each list fills in order.
	er := p.edgeReader()
	for range m {
		er.next() // checked by parseBody
		off[er.u]++
		off[er.v]++
	}
	start := int32(0)
	for v := range n {
		start, off[v] = start+off[v], start
	}
	off[n] = start
	er = p.edgeReader()
	for range m {
		er.next()
		nbr[off[er.u]] = int32(er.v)
		off[er.u]++
		nbr[off[er.v]] = int32(er.u)
		off[er.v]++
	}
	copy(off[1:], off[:n])
	off[0] = 0

	// The table is ascending, so its used entries are the label
	// signature in order.
	var sig []keyCount[Label]
	if n > 0 {
		sig = make([]keyCount[Label], 0, len(p.table))
		for i, c := range p.uses {
			if c > 0 {
				sig = append(sig, keyCount[Label]{key: p.table[i], count: uint16(min(c, math.MaxUint16))})
			}
		}
	}
	esig := edgeSignature(labels, off, nbr)
	paths, stars := shapeWords(labels, off, nbr)
	return &Graph{
		sum:    summarize(n, m, sig, esig),
		paths:  paths,
		stars:  stars,
		id:     p.id,
		labels: labels,
		off:    off,
		nbr:    nbr,
		sig:    sig,
		esig:   esig,
	}, nil
}

// bodyKey is IsoKey of the graph a body encodes, read off the body with
// no graph built: the colour refinement sums each edge into both
// endpoints straight from the edge pairs. Up to 64 vertices and 64
// labels it allocates nothing.
func bodyKey(data []byte) (uint64, error) {
	var table, lb [64]Label
	var uses [64]int32
	p, labels, err := parseBody(data, table[:0], uses[:0], lb[:0])
	if err != nil {
		return 0, err
	}
	var wl wlScratch
	cur, next := wl.colours(labels)
	for round := uint64(1); round <= 2; round++ {
		clear(next)
		er := p.edgeReader()
		for range p.m {
			er.next() // checked by parseBody
			next[er.u] += cur[er.v]
			next[er.v] += cur[er.u]
		}
		refine(cur, next, round)
		cur, next = next, cur
	}
	return isoKeyOf(cur, p.m), nil
}
