//go:build !race

package graph

import (
	"math"
	"testing"
	"time"
)

// The race detector slows the sort and the decoder unevenly and by ten
// times or more, so this timing test is built only without it.

// TestShapeWordsCostNearLinear builds and decodes 200,000-leaf stars
// whose leaves are labelled against the sort: two labels descending,
// every label descending, and one label. Each is timed against a path
// over the same labels, whose centres cost one pair each. A star's centre
// costs a sort of its degree and the pairs of its distinct labels, so the
// star stays within a small factor of its path; an insertion sort of the
// leaves, or a loop over their pairs, costs thousands of times more.
func TestShapeWordsCostNearLinear(t *testing.T) {
	const leaves = 200000
	for _, c := range []struct {
		name  string
		label func(i int) Label
	}{
		{"two labels descending", func(i int) Label { return Label(2 - 2*i/leaves) }},
		{"every label descending", func(i int) Label { return Label(math.MaxUint16 - i%(math.MaxUint16+1)) }},
		{"one label", func(int) Label { return 1 }},
	} {
		star, line := NewBuilder(), NewBuilder()
		star.AddVertex(7)
		line.AddVertex(7)
		for i := range leaves {
			l := c.label(i)
			star.AddEdge(0, star.AddVertex(l))
			line.AddEdge(int32(i), line.AddVertex(l))
		}
		cost := func(b *Builder) time.Duration {
			body, err := EncodeBinary([]*Graph{b.MustBuild()})
			if err != nil {
				t.Fatal(err)
			}
			best := time.Duration(math.MaxInt64)
			for range 3 {
				start := time.Now()
				b.MustBuild()
				if _, err := DecodeBinary(body); err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(start))
			}
			return best
		}
		s, p := cost(star), cost(line)
		if s > 20*p {
			t.Errorf("%s: a %d-leaf star costs %v to build and decode, a path of its labels %v; want at most 20 times", c.name, leaves, s, p)
		}
	}
}
