package bench

import (
	"fmt"
	"sort"
	"strings"

	"graphcache/internal/core"
)

// Logf is an optional progress sink set by callers (gcbench uses it to
// stream progress; tests leave it nil).
var Logf func(format string, args ...any)

func logf(format string, args ...any) {
	if Logf != nil {
		Logf(format, args...)
	}
}

// Experiment is one reproducible driver for a figure or table of §7.
type Experiment struct {
	// ID identifies the experiment ("fig4", "table1", ...).
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Run executes the experiment and returns its result tables.
	Run func(e *Env) []*Table
}

// Experiments returns all drivers in paper order. Figures 5 and 6 share
// one driver (same runs, two metrics), as do the two panels of Figure 9.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Running example: evictions per replacement policy", Run: Table1},
		{ID: "fig4", Title: "Query-time speedup over CT-Index across replacement policies", Run: Fig4},
		{ID: "fig5-6", Title: "GC speedup on PDBS across all methods (time & #sub-iso)", Run: Fig56},
		{ID: "fig7", Title: "Type-B speedups on AIDS across Zipf alpha", Run: Fig7},
		{ID: "fig8", Title: "Speedup vs GGSX across cache sizes", Run: Fig8},
		{ID: "fig9", Title: "Admission control on/off vs Grapes6 on PCM/Synthetic", Run: Fig9},
		{ID: "fig10", Title: "Per-query time and cache-maintenance overhead on AIDS 20%", Run: Fig10},
		{ID: "fig11", Title: "GC speedups over SI methods (VF2+, GraphQL)", Run: Fig11},
		{ID: "fig12", Title: "GC over VF2+ vs CT-Index", Run: Fig12},
		{ID: "ablation", Title: "Ablation: hit kinds and index features (GC-exclusive)", Run: Ablation},
	}
}

// ExperimentByID resolves an experiment id, accepting the aliases "fig5"
// and "fig6" for the shared driver.
func ExperimentByID(id string) (Experiment, bool) {
	id = strings.ToLower(id)
	switch id {
	case "fig5", "fig6":
		id = "fig5-6"
	}
	for _, ex := range Experiments() {
		if ex.ID == id {
			return ex, true
		}
	}
	return Experiment{}, false
}

// Table1 reproduces the paper's running example (Table 1): six cached
// queries with fixed statistics, every policy asked to evict two at time
// point 100. This is exact, not a measurement: the paper's expected
// verdicts are LRU → {13, 37}, POP → {11, 53}, PIN → {13, 91},
// PINC → {53, 82} and HD → CoV < 1 → PINC → {53, 82}.
func Table1(e *Env) []*Table {
	rows := []core.EntryStats{
		{Serial: 11, LastHit: 91, Hits: 23, CSReduction: 170, TimeSaving: 2600},
		{Serial: 13, LastHit: 51, Hits: 32, CSReduction: 80, TimeSaving: 1200},
		{Serial: 37, LastHit: 69, Hits: 26, CSReduction: 76, TimeSaving: 780},
		{Serial: 53, LastHit: 78, Hits: 13, CSReduction: 210, TimeSaving: 360},
		{Serial: 82, LastHit: 90, Hits: 5, CSReduction: 120, TimeSaving: 150},
		{Serial: 91, LastHit: 95, Hits: 4, CSReduction: 10, TimeSaving: 270},
	}
	t := &Table{
		ID:      "table1",
		Title:   "Evictions from the running example (time point 100, 2 victims)",
		Columns: []string{"victim1", "victim2"},
	}
	for _, p := range []core.PolicyKind{core.LRU, core.POP, core.PIN, core.PINC, core.HD} {
		victims := core.SelectVictims(p, rows, 100, 2)
		sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
		t.AddTextRow(p.String(), fmt.Sprint(victims[0]), fmt.Sprint(victims[1]))
	}
	t.Notes = append(t.Notes,
		"paper: LRU={13,37} POP={11,53} PIN={13,91} PINC={53,82} HD=PINC={53,82}")
	return []*Table{t}
}

// Fig4 measures query-time speedups over CT-Index for all five
// replacement policies, on AIDS and PDBS, across the six workload
// categories. Paper shape: a GC-exclusive policy (PIN or PINC) wins, the
// winner is dataset-dependent, and HD tracks the best.
func Fig4(e *Env) []*Table {
	policies := []core.PolicyKind{core.LRU, core.POP, core.PIN, core.PINC, core.HD}
	var tables []*Table
	for _, ds := range []string{"AIDS", "PDBS"} {
		t := &Table{
			ID:      "fig4",
			Title:   "Query-time speedup over CT-Index by policy, " + ds,
			Columns: AllWorkloadLabels(),
		}
		m := e.Method("ctindex", ds)
		cells := make(map[core.PolicyKind][]float64)
		for _, wl := range AllWorkloadLabels() {
			qs := e.Workload(ds, wl)
			base := RunBaseline(m, qs, Warmup)
			for _, p := range policies {
				gc, _ := RunGC(m, core.Options{Policy: p}, qs, Warmup)
				cells[p] = append(cells[p], Comparison{base, gc}.TimeSpeedup())
			}
			logf("fig4 %s %s done", ds, wl)
		}
		for _, p := range policies {
			t.AddRow(p.String(), cells[p]...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig56 measures GC speedups on PDBS across all four FTV methods with the
// HD policy — Figure 5 (query time) and Figure 6 (number of sub-iso
// tests) from the same runs. Paper shape: all speedups > 1; time and
// sub-iso speedups do not track each other proportionally.
func Fig56(e *Env) []*Table {
	methods := []string{"ctindex", "ggsx", "grapes1", "grapes6"}
	timeT := &Table{ID: "fig5", Title: "GC query-time speedup on PDBS by method",
		Columns: AllWorkloadLabels()}
	testsT := &Table{ID: "fig6", Title: "GC #sub-iso-test speedup on PDBS by method",
		Columns: AllWorkloadLabels()}
	for _, name := range methods {
		m := e.Method(name, "PDBS")
		var tRow, sRow []float64
		for _, wl := range AllWorkloadLabels() {
			qs := e.Workload("PDBS", wl)
			cmp := Compare(m, core.Options{Policy: core.HD}, qs)
			tRow = append(tRow, cmp.TimeSpeedup())
			sRow = append(sRow, cmp.SubIsoSpeedup())
			logf("fig5-6 %s %s done", name, wl)
		}
		timeT.AddRow(name, tRow...)
		testsT.AddRow(name, sRow...)
	}
	return []*Table{timeT, testsT}
}

// Fig7 measures Type-B query-time speedups on AIDS for Zipf alpha 1.1,
// 1.4 and 1.7, per method. Paper shape: more skew, more speedup; gains
// remain >1 even at low skew.
func Fig7(e *Env) []*Table {
	alphas := []float64{1.1, 1.4, 1.7}
	var tables []*Table
	for _, name := range []string{"ctindex", "ggsx", "grapes1", "grapes6"} {
		m := e.Method(name, "AIDS")
		t := &Table{
			ID:      "fig7",
			Title:   "Type-B query-time speedup on AIDS across Zipf alpha, " + name,
			Columns: TypeBLabels(),
		}
		for _, alpha := range alphas {
			var row []float64
			for _, prob := range []float64{0, 0.2, 0.5} {
				qs := e.TypeB("AIDS", prob, alpha)
				cmp := Compare(m, core.Options{Policy: core.HD}, qs)
				row = append(row, cmp.TimeSpeedup())
			}
			t.AddRow(fmt.Sprintf("zipf %.1f", alpha), row...)
			logf("fig7 %s alpha=%.1f done", name, alpha)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig8 measures query-time speedups against GGSX for cache sizes 100,
// 300 and 500 (window 20), on AIDS and PDBS, Type A and Type B. Paper
// shape: larger cache, higher speedup, with diminishing returns.
func Fig8(e *Env) []*Table {
	sizes := []int{100, 300, 500}
	var tables []*Table
	for _, ds := range []string{"AIDS", "PDBS"} {
		for _, kind := range []string{"A", "B"} {
			labels := TypeALabels()
			if kind == "B" {
				labels = TypeBLabels()
			}
			t := &Table{
				ID:      "fig8",
				Title:   fmt.Sprintf("Query-time speedup vs GGSX, %s / Type %s workloads", ds, kind),
				Columns: labels,
			}
			m := e.Method("ggsx", ds)
			rows := make(map[int][]float64)
			for _, wl := range labels {
				qs := e.Workload(ds, wl)
				base := RunBaseline(m, qs, Warmup)
				for _, c := range sizes {
					gc, _ := RunGC(m, core.Options{Policy: core.HD, CacheSize: c}, qs, Warmup)
					rows[c] = append(rows[c], Comparison{base, gc}.TimeSpeedup())
				}
				logf("fig8 %s %s done", ds, wl)
			}
			for _, c := range sizes {
				t.AddRow(fmt.Sprintf("c%d-b20", c), rows[c]...)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// Fig9 measures GC against Grapes6 on the dense PCM and Synthetic
// datasets, Type B workloads, with the cache alone (C) and with admission
// control (C + AC). Paper shape: AC raises the query-time speedup while
// lowering the #sub-iso speedup — expensive queries get prioritised.
func Fig9(e *Env) []*Table {
	timeT := &Table{ID: "fig9", Title: "Query-time speedup vs Grapes6 (C vs C+AC)",
		Columns: TypeBLabels()}
	testsT := &Table{ID: "fig9", Title: "#sub-iso-test speedup vs Grapes6 (C vs C+AC)",
		Columns: TypeBLabels()}
	// The paper runs C = 100 against Type B pools of 10,000 + 3,000
	// queries per size; pollution needs the distinct-query population to
	// dwarf the cache. With this harness's scaled-down pools the cache is
	// scaled along (same cache:pool ratio, ~1%), or pollution never
	// occurs and there is nothing for admission control to fix.
	cacheSize := (e.Scale().AnswerPool + e.Scale().NoAnswerPool) * len(QuerySizes("PCM")) / 50
	if cacheSize < 10 {
		cacheSize = 10
	}
	for _, ds := range []string{"PCM", "Synthetic"} {
		m := e.Method("grapes6", ds)
		var tC, tAC, sC, sAC []float64
		for _, prob := range []float64{0, 0.2, 0.5} {
			qs := e.TypeB(ds, prob, 1.4)
			base := RunBaseline(m, qs, Warmup)
			gcC, _ := RunGC(m, core.Options{Policy: core.HD, CacheSize: cacheSize}, qs, Warmup)
			gcAC, _ := RunGC(m, core.Options{Policy: core.HD, CacheSize: cacheSize, AdmissionFraction: 0.25}, qs, Warmup)
			tC = append(tC, Comparison{base, gcC}.TimeSpeedup())
			tAC = append(tAC, Comparison{base, gcAC}.TimeSpeedup())
			sC = append(sC, Comparison{base, gcC}.SubIsoSpeedup())
			sAC = append(sAC, Comparison{base, gcAC}.SubIsoSpeedup())
			logf("fig9 %s %.0f%% done", ds, prob*100)
		}
		timeT.AddRow(ds+" C", tC...)
		timeT.AddRow(ds+" C+AC", tAC...)
		testsT.AddRow(ds+" C", sC...)
		testsT.AddRow(ds+" C+AC", sAC...)
	}
	return []*Table{timeT, testsT}
}

// Fig10 breaks down per-query cost on the AIDS 20% workload: the average
// query time of Method M alone, of GC per cache size, and GC's average
// cache-maintenance overhead (window passes, outside per-query time). Paper shape: overhead
// is small relative to the per-query gain and grows with cache size.
func Fig10(e *Env) []*Table {
	sizes := []int{100, 300, 500}
	t := &Table{
		ID:      "fig10",
		Title:   "Avg per-query time and maintenance overhead (ms), AIDS 20% workload",
		Columns: []string{"methodM", "c100", "c300", "c500"},
	}
	qs := e.TypeB("AIDS", 0.2, 1.4)
	for _, name := range []string{"ctindex", "ggsx", "grapes6"} {
		m := e.Method(name, "AIDS")
		base := RunBaseline(m, qs, Warmup)
		avg := []float64{base.AvgTimeMS()}
		ovh := []float64{0}
		for _, c := range sizes {
			gc, _ := RunGC(m, core.Options{Policy: core.HD, CacheSize: c}, qs, Warmup)
			avg = append(avg, gc.AvgTimeMS())
			ovh = append(ovh, gc.AvgMaintenanceMS())
		}
		t.AddRow(name+" avg", avg...)
		t.AddRow(name+" ovh", ovh...)
		logf("fig10 %s done", name)
	}
	return []*Table{t}
}

// Fig11 measures GC query-time speedups over the SI methods VF2+ and
// GraphQL on AIDS and PDBS Type A workloads. Paper shape: GC expedites
// plain SI methods substantially, in both skewed and uniform workloads.
func Fig11(e *Env) []*Table {
	t := &Table{
		ID:      "fig11",
		Title:   "GC query-time speedup over SI methods",
		Columns: TypeALabels(),
	}
	for _, ds := range []string{"AIDS", "PDBS"} {
		for _, name := range []string{"vf2+", "gql"} {
			m := e.Method(name, ds)
			var row []float64
			for _, wl := range TypeALabels() {
				qs := e.Workload(ds, wl)
				cmp := Compare(m, core.Options{Policy: core.HD}, qs)
				row = append(row, cmp.TimeSpeedup())
				logf("fig11 %s %s %s done", ds, name, wl)
			}
			t.AddRow(ds+" "+name, row...)
		}
	}
	return []*Table{t}
}

// Fig12 pits GC over plain VF2+ against the full CT-Index FTV method
// (which itself verifies with VF2+): cells are avg CT-Index query time
// over avg GC-on-VF2+ query time. Paper shape: with a small cache GC is
// competitive; with a 500-query cache it matches or beats CT-Index
// across the board — with no dataset index at all.
func Fig12(e *Env) []*Table {
	t := &Table{
		ID:      "fig12",
		Title:   "GC over VF2+ vs CT-Index (time ratio, >1 = GC wins)",
		Columns: TypeALabels(),
	}
	for _, ds := range []string{"AIDS", "PDBS"} {
		ct := e.Method("ctindex", ds)
		vf := e.Method("vf2+", ds)
		rows := map[int][]float64{100: nil, 500: nil}
		for _, wl := range TypeALabels() {
			qs := e.Workload(ds, wl)
			ctBase := RunBaseline(ct, qs, Warmup)
			for _, c := range []int{100, 500} {
				gc, _ := RunGC(vf, core.Options{Policy: core.HD, CacheSize: c}, qs, Warmup)
				rows[c] = append(rows[c], Comparison{ctBase, gc}.TimeSpeedup())
			}
			logf("fig12 %s %s done", ds, wl)
		}
		for _, c := range []int{100, 500} {
			t.AddRow(fmt.Sprintf("%s c%d", ds, c), rows[c]...)
		}
	}
	return []*Table{t}
}

// Ablation quantifies the GC-exclusive design choices (doc.go, "What
// GraphCache adds"), on AIDS with CT-Index: full GC vs exact-match-only (both semantic
// hit kinds off), vs no-subgraph-hits, vs no-supergraph-hits, vs
// no-exact-match. Not a paper figure; it isolates where the semantic
// cache's gains come from.
func Ablation(e *Env) []*Table {
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"full GC", core.Options{Policy: core.HD}},
		{"exact only", core.Options{Policy: core.HD, DisableSubHits: true, DisableSuperHits: true}},
		{"no sub hits", core.Options{Policy: core.HD, DisableSubHits: true}},
		{"no super hits", core.Options{Policy: core.HD, DisableSuperHits: true}},
		{"no exact", core.Options{Policy: core.HD, DisableExactMatch: true}},
	}
	t := &Table{
		ID:      "ablation",
		Title:   "Query-time speedup over CT-Index on AIDS by GC variant",
		Columns: AllWorkloadLabels(),
	}
	m := e.Method("ctindex", "AIDS")
	rows := make([][]float64, len(variants))
	for _, wl := range AllWorkloadLabels() {
		qs := e.Workload("AIDS", wl)
		base := RunBaseline(m, qs, Warmup)
		for i, v := range variants {
			gc, _ := RunGC(m, v.opts, qs, Warmup)
			rows[i] = append(rows[i], Comparison{base, gc}.TimeSpeedup())
		}
		logf("ablation %s done", wl)
	}
	for i, v := range variants {
		t.AddRow(v.label, rows[i]...)
	}
	return []*Table{t}
}

// RunAll executes every experiment and returns all tables in order.
func RunAll(e *Env) []*Table {
	var out []*Table
	for _, ex := range Experiments() {
		logf("=== %s: %s", ex.ID, ex.Title)
		out = append(out, ex.Run(e)...)
	}
	return out
}
