package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"graphcache/internal/graph"
)

// The Statistics Manager (§6.1). The paper's Java system keeps its
// statistics as {key, column, value} triplets keyed by the cached query's
// serial, so that they can be read by key, by column or both. Here every
// value lives on the entry it describes (see entry), and the triplet view
// is a slice of EntryStats: a row is a key, a field across the rows a
// column. Nothing keyed by serial sits beside the index, so nothing has to
// be kept in step with it: an admitted entry arrives with its figures, and
// an evicted one leaves with them.

// EntryStats is the statistics row of one cached query.
type EntryStats struct {
	Serial int64
	// Static query metrics, read off the query graph.
	Nodes, Edges, Labels int
	// First execution: filtering and verification time in nanoseconds,
	// |CS_M| and the estimated sub-iso cost of CS_M.
	FilterNS, VerifyNS float64
	OwnCS              int
	OwnCost            float64
	// Hit accounting (§5.2).
	Hits        int64   // H: times the cached query matched
	SpecialHits int64   // exact-match and empty-answer shortcuts among them
	LastHit     int64   // serial of the last query it helped; its own until then
	CSReduction int64   // R: candidate-set graphs removed
	TimeSaving  float64 // C: estimated sub-iso cost saved
}

// ledger is what an entry records about its use: the figures of its first
// execution, set before the entry enters the window and only read
// afterwards, and its hit counters, guarded by Cache.totMu.
type ledger struct {
	filterNS, verifyNS float64 // filtering (Method M and the GC processors) and verification time
	ownCS              int     // |CS_M|
	ownCost            float64 // Σ c(q, G) over CS_M: the repeat cost a shortcut hit is credited with

	hits, specialHits int64
	lastHit           int64
	csReduction       int64
	timeSaving        float64
}

// stats returns e's row. The caller holds totMu.
func (e *entry) stats() EntryStats {
	return EntryStats{
		Serial: e.serial,
		Nodes:  e.g.NumVertices(), Edges: e.g.NumEdges(), Labels: e.g.DistinctLabels(),
		FilterNS: e.filterNS, VerifyNS: e.verifyNS, OwnCS: e.ownCS, OwnCost: e.ownCost,
		Hits: e.hits, SpecialHits: e.specialHits, LastHit: e.lastHit,
		CSReduction: e.csReduction, TimeSaving: e.timeSaving,
	}
}

// EntryStats returns one statistics row per cached query, in serial order.
func (c *Cache) EntryStats() []EntryStats { return c.entryStats(c.index.Load().slotEntry) }

// entryStats returns the rows of entries, in their order, reading every
// hit counter in one critical section.
func (c *Cache) entryStats(entries []*entry) []EntryStats {
	rows := make([]EntryStats, len(entries))
	c.totMu.Lock()
	defer c.totMu.Unlock()
	for i, e := range entries {
		rows[i] = e.stats()
	}
	return rows
}

// hitCredit is one credit of the Statistics Monitor (§5.2): cached entry
// e helped the query with serial by and is credited one hit, the
// candidate-set graphs it removed and their estimated sub-iso cost — for a
// shortcut (special) hit, the entry's own first-execution figures.
type hitCredit struct {
	e       *entry
	by      int64
	removed int64
	saved   float64
	special bool
}

// apply adds the credit to its entry; the caller holds totMu. Concurrent
// runs land their credits in any order, so recency keeps the newest
// serial rather than the last one applied.
func (h *hitCredit) apply() {
	e := h.e
	e.hits++
	e.lastHit = max(e.lastHit, h.by)
	e.csReduction += h.removed
	e.timeSaving += h.saved
	if h.special {
		e.specialHits++
	}
}

// statColumns name a snapshot's stat lines, sorted: the order WriteSnapshot
// writes them in, and the only names ReadSnapshot accepts.
var statColumns = [...]string{"cs_reduction", "edges", "filter_ns", "hits", "labels", "last_hit",
	"nodes", "own_cost", "own_cs", "special_hits", "time_saving", "verify_ns"}

// columns returns r's values in statColumns order.
func (r *EntryStats) columns() [len(statColumns)]float64 {
	return [...]float64{float64(r.CSReduction), float64(r.Edges), r.FilterNS, float64(r.Hits),
		float64(r.Labels), float64(r.LastHit), float64(r.Nodes), r.OwnCost, float64(r.OwnCS),
		float64(r.SpecialHits), r.TimeSaving, r.VerifyNS}
}

// setColumn restores the field a snapshot stat line names. The static
// metrics are read off the restored graph instead, so their lines only
// need a known name.
func (l *ledger) setColumn(name string, v float64) error {
	switch name {
	case "nodes", "edges", "labels":
	case "filter_ns":
		l.filterNS = v
	case "verify_ns":
		l.verifyNS = v
	case "own_cs":
		l.ownCS = int(v)
	case "own_cost":
		l.ownCost = v
	case "hits":
		l.hits = int64(v)
	case "special_hits":
		l.specialHits = int64(v)
	case "last_hit":
		l.lastHit = int64(v)
	case "cs_reduction":
		l.csReduction = int64(v)
	case "time_saving":
		l.timeSaving = v
	default:
		return fmt.Errorf("core: unknown stat column %q", name)
	}
	return nil
}

// EstimateSubIsoCost implements the paper's sub-iso cost model (§5.2):
//
//	c(g, G) = N·N! / (L^(n+1) · (N−n)!)
//
// with n = |V(g)|, N = |V(G)| and L the number of distinct labels in G.
// The value is computed in log space to survive large N and capped to
// stay finite.
func EstimateSubIsoCost(n, N, L int) float64 { return newCostTerms(N, L).cost(n) }

// costTerms are the terms of the cost model that depend on the dataset
// graph G alone, through N and L; equal terms make two graphs one cost
// class (see costModel). One table look-up and one Exp turn them into
// c(q, G) for a query of any size, where the formula takes two Lgamma and
// two Log more.
type costTerms struct {
	size int     // N
	base float64 // ln N + ln N!
	logL float64 // ln max(L, 2)
}

func newCostTerms(N, L int) costTerms {
	if N <= 0 {
		return costTerms{}
	}
	if L < 2 {
		L = 2 // unlabelled graphs: avoid division by ln(1) = 0 semantics
	}
	return costTerms{
		size: N,
		base: math.Log(float64(N)) + lgammaInt(N+1),
		logL: math.Log(float64(L)),
	}
}

// cost returns c(q, G) for a query of n vertices.
func (t costTerms) cost(n int) float64 {
	if n > t.size || n < 0 || t.size <= 0 {
		return 0
	}
	logc := t.base - lgammaInt(t.size-n+1) - float64(n+1)*t.logL
	if logc > 600 {
		logc = 600
	}
	return math.Exp(logc)
}

// costModel serves c(q, G) to the query path, where every candidate of
// every query needs it. c depends on G only through G's class, its
// costTerms, and a dataset has few classes: 693 among 2,400 generated
// AIDS-like graphs, 1,351 among 40,000. So the model keeps a class per dataset
// graph and, per query vertex count n, one row holding c for every class;
// a candidate's cost is two loads (see costRow).
//
// A row is built the first time a query of its size arrives and published
// atomically, so concurrent queries share it, and two queries that both
// find it missing compute equal rows and publish one of them. Classes change only while the cache is exclusive
// (construction, snapshot load, the mutation gate); a graph of a new class
// appends that class's cost to every row built so far, so the rows are
// complete again before the next query.
type costModel struct {
	class []uint32             // by dataset-graph ID
	terms []costTerms          // by class
	ids   map[costTerms]uint32 // the class of each terms value
	// rows holds the row of every query vertex count up to one past the
	// largest class size; that last row is all zeros (c is 0 when the
	// query outnumbers G's vertices) and stands for every larger query.
	rows []atomic.Pointer[[]float64]
}

// set records dataset graph g's class. The caller owns the cache
// exclusively.
func (m *costModel) set(g *graph.Graph) {
	t := newCostTerms(g.NumVertices(), g.DistinctLabels())
	k, ok := m.ids[t]
	if !ok {
		k = m.addClass(t)
	}
	if grow := int(g.ID()) + 1 - len(m.class); grow > 0 {
		m.class = append(m.class, make([]uint32, grow)...)
	}
	m.class[g.ID()] = k
}

// addClass adds class t, extends every built row by its cost, and grows
// the rows to one past its size.
func (m *costModel) addClass(t costTerms) uint32 {
	if m.ids == nil {
		m.ids = make(map[costTerms]uint32)
	}
	k := uint32(len(m.terms))
	m.ids[t] = k
	m.terms = append(m.terms, t)
	if need := t.size + 2; need > len(m.rows) {
		rows := make([]atomic.Pointer[[]float64], need)
		for n := range m.rows {
			rows[n].Store(m.rows[n].Load())
		}
		m.rows = rows
	}
	for n := range m.rows {
		if r := m.rows[n].Load(); r != nil {
			ext := append(*r, t.cost(n))
			m.rows[n].Store(&ext)
		}
	}
	return k
}

// costRow is the cost model bound to one query size: c(q, G) for dataset
// graph G is row[class[G]].
type costRow struct {
	class []uint32
	row   []float64
}

// of returns c(q, G) for dataset graph id.
func (r costRow) of(id int32) float64 { return r.row[r.class[id]] }

// forQuery returns the model bound to a query of n vertices, building and
// publishing its row on first use.
func (m *costModel) forQuery(n int) costRow {
	if len(m.rows) == 0 {
		return costRow{} // no dataset graph, so no candidate to price
	}
	n = min(n, len(m.rows)-1)
	p := &m.rows[n]
	r := p.Load()
	if r == nil {
		row := make([]float64, len(m.terms))
		for k, t := range m.terms {
			row[k] = t.cost(n)
		}
		if p.CompareAndSwap(nil, &row) {
			r = &row
		} else {
			r = p.Load()
		}
	}
	return costRow{class: m.class, row: *r}
}

// lgammaTable holds ln Γ(k) for the small integer arguments the cost model
// asks for — dataset graphs have tens to hundreds of vertices.
var lgammaTable = func() (t [1024]float64) {
	for k := 1; k < len(t); k++ {
		t[k], _ = math.Lgamma(float64(k))
	}
	return t
}()

// lgammaInt returns ln Γ(k) for k ≥ 1.
func lgammaInt(k int) float64 {
	if k < len(lgammaTable) {
		return lgammaTable[k]
	}
	v, _ := math.Lgamma(float64(k))
	return v
}
