package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
)

func TestEstimateSubIsoCost(t *testing.T) {
	// Hand check: n=2, N=3, L=2: c = 3·3!/(2^3·1!) = 18/8 = 2.25.
	if got := EstimateSubIsoCost(2, 3, 2); math.Abs(got-2.25) > 1e-9 {
		t.Errorf("c(2,3,2) = %f, want 2.25", got)
	}
	// n=1, N=2, L=2: 2·2/(4·1) = 1.
	if got := EstimateSubIsoCost(1, 2, 2); math.Abs(got-1) > 1e-9 {
		t.Errorf("c(1,2,2) = %f, want 1", got)
	}
}

func TestEstimateSubIsoCostProperties(t *testing.T) {
	// Monotone in N (bigger targets cost more).
	if EstimateSubIsoCost(4, 50, 5) >= EstimateSubIsoCost(4, 200, 5) {
		t.Error("cost must grow with target size")
	}
	// Decreasing in L (more labels prune more).
	if EstimateSubIsoCost(4, 50, 3) <= EstimateSubIsoCost(4, 50, 30) {
		t.Error("cost must shrink with more labels")
	}
	// Degenerate inputs.
	if EstimateSubIsoCost(5, 3, 2) != 0 {
		t.Error("pattern larger than target must cost 0")
	}
	if EstimateSubIsoCost(-1, 3, 2) != 0 || EstimateSubIsoCost(2, 0, 2) != 0 {
		t.Error("invalid sizes must cost 0")
	}
	// Huge values stay finite.
	got := EstimateSubIsoCost(40, 16000, 2)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("cost overflowed: %f", got)
	}
	// L < 2 clamps rather than exploding.
	if v := EstimateSubIsoCost(2, 3, 1); v <= 0 || math.IsInf(v, 0) {
		t.Errorf("L=1 must clamp, got %f", v)
	}
}

func TestSetOps(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 5, 8}
	if got := intersectSorted(a, b); !eq(got, []int32{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	if got := subtractSorted(a, b); !eq(got, []int32{1, 7}) {
		t.Errorf("subtract = %v", got)
	}
	if got := unionSorted(a, b); !eq(got, []int32{1, 3, 4, 5, 7, 8}) {
		t.Errorf("union = %v", got)
	}
	if got := intersectCountSorted(a, b); got != 2 {
		t.Errorf("intersectCount = %d", got)
	}
	// Empty operands.
	if got := intersectSorted(a, nil); len(got) != 0 {
		t.Errorf("intersect with empty = %v", got)
	}
	if got := subtractSorted(a, nil); !eq(got, a) {
		t.Errorf("subtract empty = %v", got)
	}
	if got := unionSorted(nil, b); !eq(got, b) {
		t.Errorf("union with empty = %v", got)
	}
}

func eq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// referenceSubIsoCost is the cost model with every term taken from package
// math at call time — the form it had before costTerms precomputed the
// per-graph part and tabulated ln Γ.
func referenceSubIsoCost(n, N, L int) float64 {
	if n > N || n < 0 || N <= 0 {
		return 0
	}
	if L < 2 {
		L = 2
	}
	lgN1, _ := math.Lgamma(float64(N + 1))
	lgNn1, _ := math.Lgamma(float64(N - n + 1))
	logc := math.Log(float64(N)) + lgN1 - lgNn1 - float64(n+1)*math.Log(float64(L))
	if logc > 600 {
		logc = 600
	}
	return math.Exp(logc)
}

// checkCostRows asserts that the cost row of every query size from 0 to
// two past the largest live dataset graph prices every live graph, and so
// every class, at exactly EstimateSubIsoCost. The first call builds every
// row; later calls find them built.
func checkCostRows(t *testing.T, when string, c *Cache) {
	t.Helper()
	ds := c.m.Dataset()
	maxN := 0
	for id := 0; id < ds.Len(); id++ {
		if g := ds.Graph(int32(id)); g != nil {
			maxN = max(maxN, g.NumVertices())
		}
	}
	for n := 0; n <= maxN+2; n++ {
		row := c.costs.forQuery(n)
		for id := 0; id < ds.Len(); id++ {
			g := ds.Graph(int32(id))
			if g == nil {
				continue
			}
			want := EstimateSubIsoCost(n, g.NumVertices(), g.DistinctLabels())
			if got := row.of(g.ID()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: graph %d (N=%d, L=%d), n=%d: row says %v, EstimateSubIsoCost %v",
					when, id, g.NumVertices(), g.DistinctLabels(), n, got, want)
			}
		}
	}
}

// TestCostRowsMatchFormula pins the cost rows to the formula after
// construction, after a mutation adds a graph of a class no dataset graph
// had (larger than any, so the rows grow too), and after a snapshot load
// restores that graph into a cache whose rows were built without it.
func TestCostRowsMatchFormula(t *testing.T) {
	ds := moleculeDataset(60, 21)
	c := New(ggsx.New(ds, ggsx.Options{}), Options{CacheSize: 10, WindowSize: 5})
	checkCostRows(t, "construction", c)
	classes := len(c.costs.terms)

	maxN := 0
	for id := 0; id < ds.Len(); id++ {
		maxN = max(maxN, ds.Graph(int32(id)).NumVertices())
	}
	b := graph.NewBuilder()
	for v := 0; v < maxN+3; v++ {
		b.AddVertex(graph.Label(v)) // every label distinct: an unseen (N, L)
		if v > 0 {
			b.AddEdge(int32(v-1), int32(v))
		}
	}
	if _, err := c.AddGraphs([]*graph.Graph{b.MustBuild()}); err != nil {
		t.Fatal(err)
	}
	if len(c.costs.terms) != classes+1 {
		t.Fatalf("the added graph made %d new classes, want 1", len(c.costs.terms)-classes)
	}
	checkCostRows(t, "ApplyMutation", c)

	var snap bytes.Buffer
	if err := c.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded := New(ggsx.New(moleculeDataset(60, 21), ggsx.Options{}), Options{CacheSize: 10, WindowSize: 5})
	checkCostRows(t, "before ReadSnapshot", loaded)
	if err := loaded.ReadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	checkCostRows(t, "ReadSnapshot", loaded)
}

// TestCostRowsBuiltConcurrently has eight goroutines ask a fresh model for
// the same rows at once, as the first queries of a cache do: every caller
// must get the row that won publication, with the formula's values.
func TestCostRowsBuiltConcurrently(t *testing.T) {
	ds := moleculeDataset(60, 22)
	var m costModel
	for id := 0; id < ds.Len(); id++ {
		m.set(ds.Graph(int32(id)))
	}
	const callers, sizes = 8, 12
	got := make([][sizes]costRow, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range sizes {
				got[i][n] = m.forQuery(n)
			}
		}()
	}
	wg.Wait()
	for n := range sizes {
		published := m.forQuery(n)
		for i := range got {
			if &got[i][n].row[0] != &published.row[0] {
				t.Fatalf("caller %d got a row for n=%d other than the published one", i, n)
			}
		}
		g := ds.Graph(0)
		want := EstimateSubIsoCost(n, g.NumVertices(), g.DistinctLabels())
		if v := published.of(0); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("n=%d: graph 0 costs %v, want %v", n, v, want)
		}
	}
}

// TestCostTermsBitIdentical pins the precomputed cost model to the direct
// formula, bit for bit, over every (n, N, L) the engine can reach and past
// the end of the ln Γ table: the values feed the PIN/PINC/HD utilities, so
// a last-bit difference could reorder evictions.
func TestCostTermsBitIdentical(t *testing.T) {
	for N := -1; N <= len(lgammaTable)+40; N++ {
		for L := 0; L <= 24; L++ {
			terms := newCostTerms(N, L)
			for n := -1; n <= 48; n++ {
				want := referenceSubIsoCost(n, N, L)
				if got := terms.cost(n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("costTerms(N=%d, L=%d).cost(%d) = %v, direct formula %v", N, L, n, got, want)
				}
				if got := EstimateSubIsoCost(n, N, L); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("EstimateSubIsoCost(%d, %d, %d) = %v, direct formula %v", n, N, L, got, want)
				}
			}
		}
	}
}
