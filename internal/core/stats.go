package core

import (
	"math"
	"sync"
)

// Statistics column names (§5.2, §6.1). The statistics store holds
// {key, column, value} triplets, keyed by the cached query's serial
// number, exactly as the paper's Statistics Manager exposes them.
const (
	// Static query metrics.
	ColNodes  = "nodes"
	ColEdges  = "edges"
	ColLabels = "labels"
	// First-execution timings (nanoseconds), candidate-set size and the
	// estimated total sub-iso cost of that candidate set (the repeat-cost
	// proxy credited on exact-match and empty-answer shortcut hits).
	ColFilterTime = "filter_ns"
	ColVerifyTime = "verify_ns"
	ColOwnCS      = "own_cs"
	ColOwnCost    = "own_cost"
	// Cache-hit accounting.
	ColHits        = "hits"         // H: times the cached query matched
	ColSpecialHits = "special_hits" // exact-match / empty-answer shortcuts
	ColLastHit     = "last_hit"     // serial of the last benefited query
	ColCSReduction = "cs_reduction" // R: total candidate-set graphs removed
	ColTimeSaving  = "time_saving"  // C: total estimated sub-iso cost saved
)

// StatsStore is the Statistics Manager's backing store: an in-memory
// key-value store of {key, column, value} triplets, accessible by key, by
// column, or by both (§6.1). It is safe for concurrent use — the Window
// Manager reads it while the query runtime updates it.
type StatsStore struct {
	mu   sync.RWMutex
	rows map[int64]map[string]float64
}

// NewStatsStore returns an empty store.
func NewStatsStore() *StatsStore {
	return &StatsStore{rows: make(map[int64]map[string]float64)}
}

// Set stores a triplet.
func (s *StatsStore) Set(key int64, col string, val float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.rows[key]
	if row == nil {
		row = make(map[string]float64, 12)
		s.rows[key] = row
	}
	row[col] = val
}

// StatOp is one deferred statistics update: an Add (increment), Set
// (replace) or Max (keep the larger value) of a single triplet. Query
// processing batches its ~6 per-query updates into one ApplyBatch so N
// concurrent callers contend for the store lock once per query instead of
// once per triplet.
type StatOp struct {
	Key int64
	Col string
	Val float64
	Set bool // replace instead of increment
	// Max keeps max(existing, Val) — used for recency columns like
	// last_hit, where concurrent crediting must not let an older serial
	// overwrite a newer one.
	Max bool
}

// ApplyBatch applies a sequence of updates under a single lock
// acquisition, in order, creating rows as needed.
func (s *StatsStore) ApplyBatch(ops []StatOp) {
	if len(ops) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		row := s.rows[op.Key]
		if row == nil {
			row = make(map[string]float64, 12)
			s.rows[op.Key] = row
		}
		s.apply(row, op)
	}
}

// CreditBatch applies updates only to rows that already exist, silently
// dropping the rest. Hit crediting uses it: a concurrent query may verify
// against an index snapshot whose entry the Window Manager has evicted
// (and whose statistics row it has deleted) in the meantime — recreating
// the row would leak it forever, and credit to an evicted entry is
// meaningless anyway.
func (s *StatsStore) CreditBatch(ops []StatOp) {
	if len(ops) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		row := s.rows[op.Key]
		if row == nil {
			continue
		}
		s.apply(row, op)
	}
}

func (s *StatsStore) apply(row map[string]float64, op StatOp) {
	switch {
	case op.Max:
		if op.Val > row[op.Col] {
			row[op.Col] = op.Val
		}
	case op.Set:
		row[op.Col] = op.Val
	default:
		row[op.Col] += op.Val
	}
}

// Add increments a triplet (missing triplets count as zero).
func (s *StatsStore) Add(key int64, col string, delta float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.rows[key]
	if row == nil {
		row = make(map[string]float64, 12)
		s.rows[key] = row
	}
	row[col] += delta
}

// Get returns a single triplet's value (zero if absent).
func (s *StatsStore) Get(key int64, col string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows[key][col]
}

// Row returns a copy of all triplets with the given key.
func (s *StatsStore) Row(key int64) map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row := s.rows[key]
	out := make(map[string]float64, len(row))
	for c, v := range row {
		out[c] = v
	}
	return out
}

// Column returns all triplets with the given column name, keyed by row.
func (s *StatsStore) Column(col string) map[int64]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int64]float64)
	for k, row := range s.rows {
		if v, ok := row[col]; ok {
			out[k] = v
		}
	}
	return out
}

// Delete removes all triplets with the given key — the lazy cleanup the
// Window Manager performs for evicted queries.
func (s *StatsStore) Delete(key int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.rows, key)
}

// Len returns the number of rows.
func (s *StatsStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
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
// graph G alone. The engine evaluates c(q, G) for every candidate of every
// query, so it keeps them per graph and pays one table look-up and one Exp
// per candidate instead of two Lgamma and two Log more.
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
