package bench

import (
	"fmt"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/method"
	"graphcache/internal/workload"
)

// Warmup is how many leading queries are excluded from averages: the paper
// allows one Window (20 queries) before measuring GC's performance (§7.2).
const Warmup = 20

// RunStats aggregates one measured run (baseline or GraphCache) over a
// workload, excluding the warm-up prefix.
type RunStats struct {
	Queries     int     // measured queries
	TotalNS     float64 // summed per-query processing time
	SubIsoTests int64   // summed dataset sub-iso tests
	Answers     int64   // summed answer-set sizes (for sanity checks)
	// MaintenanceNS is the cache-maintenance time accrued during the
	// measured window (zero for baselines). It is not in any query's
	// TotalTime and is reported separately (Fig. 10).
	MaintenanceNS float64
}

// AvgTimeMS returns the mean per-query processing time in milliseconds.
func (s RunStats) AvgTimeMS() float64 {
	if s.Queries == 0 {
		return 0
	}
	return s.TotalNS / float64(s.Queries) / 1e6
}

// AvgSubIso returns the mean number of sub-iso tests per query.
func (s RunStats) AvgSubIso() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.SubIsoTests) / float64(s.Queries)
}

// AvgMaintenanceMS returns the mean per-query cache-maintenance overhead
// in milliseconds.
func (s RunStats) AvgMaintenanceMS() float64 {
	if s.Queries == 0 {
		return 0
	}
	return s.MaintenanceNS / float64(s.Queries) / 1e6
}

// RunBaseline executes the workload through Method M alone (filter +
// verify per query) and returns the aggregate over the measured suffix.
func RunBaseline(m method.Method, qs []workload.Query, warmup int) RunStats {
	var st RunStats
	for i, q := range qs {
		start := time.Now()
		cs := m.Filter(q.Graph)
		verdicts := method.VerifyAll(m, q.Graph, cs)
		elapsed := time.Since(start)
		if i < warmup {
			continue
		}
		st.Queries++
		st.TotalNS += float64(elapsed.Nanoseconds())
		st.SubIsoTests += int64(len(cs))
		for _, ok := range verdicts {
			if ok {
				st.Answers++
			}
		}
	}
	return st
}

// RunGC executes the workload through a fresh GraphCache over Method M and
// returns the aggregate over the measured suffix plus the cache itself
// (for inspection of totals, cached contents and admission state).
func RunGC(m method.Method, opts core.Options, qs []workload.Query, warmup int) (RunStats, *core.Cache) {
	c := core.New(m, opts)
	var st RunStats
	maintBefore := time.Duration(0)
	for i, q := range qs {
		res := c.Query(q.Graph)
		if i == warmup-1 {
			c.Flush()
			maintBefore = c.Totals().MaintenanceTime
		}
		if i < warmup {
			continue
		}
		st.Queries++
		st.TotalNS += float64(res.Stats.TotalTime().Nanoseconds())
		st.SubIsoTests += int64(res.Stats.SubIsoTests)
		st.Answers += int64(len(res.Answer))
	}
	c.Flush()
	st.MaintenanceNS = float64((c.Totals().MaintenanceTime - maintBefore).Nanoseconds())
	return st, c
}

// Comparison pairs a baseline run with a GraphCache run over the same
// workload and method.
type Comparison struct {
	Base RunStats
	GC   RunStats
}

// TimeSpeedup is the paper's headline metric: average baseline query time
// over average GC query time (>1 means GC wins).
func (c Comparison) TimeSpeedup() float64 {
	gc := c.GC.AvgTimeMS()
	if gc == 0 {
		return 0
	}
	return c.Base.AvgTimeMS() / gc
}

// SubIsoSpeedup is the companion metric: average baseline sub-iso tests
// per query over GC's.
func (c Comparison) SubIsoSpeedup() float64 {
	gc := c.GC.AvgSubIso()
	if gc == 0 {
		return 0
	}
	return c.Base.AvgSubIso() / gc
}

// Compare runs the workload through Method M with and without GraphCache
// and returns both aggregates. The same Method instance serves both runs
// (its index is already built); the cache starts cold.
func Compare(m method.Method, opts core.Options, qs []workload.Query) Comparison {
	base := RunBaseline(m, qs, Warmup)
	gc, _ := RunGC(m, opts, qs, Warmup)
	return Comparison{Base: base, GC: gc}
}

// CheckAnswers replays the workload through Method M and a fresh
// GraphCache and returns an error on the first answer-set mismatch. Used
// by integration tests; not part of the measured path.
func CheckAnswers(m method.Method, opts core.Options, qs []workload.Query) error {
	c := core.New(m, opts)
	for i, q := range qs {
		want := method.Answer(m, q.Graph)
		got := c.Query(q.Graph).Answer
		if len(want) != len(got) {
			return fmt.Errorf("query %d: answer size %d, baseline %d", i, len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				return fmt.Errorf("query %d: answer[%d] = %d, baseline %d", i, j, got[j], want[j])
			}
		}
	}
	return nil
}
