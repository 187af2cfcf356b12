package bench

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// tinyScale is small enough that even dataset-building tests run in
// milliseconds.
func tinyScale() Scale {
	return Scale{
		CountFactor:  0.004,
		SizeFactor:   1,
		Queries:      60,
		DenseQueries: 24,
		AnswerPool:   10,
		NoAnswerPool: 4,
		Seed:         1,
	}
}

func TestSmallScaleDefaults(t *testing.T) {
	sc := SmallScale()
	if sc.CountFactor <= 0 || sc.Queries <= 0 || sc.DenseQueries <= 0 {
		t.Fatalf("SmallScale has non-positive knobs: %+v", sc)
	}
	if sc.Queries < sc.DenseQueries {
		t.Errorf("dense workloads should not be longer than sparse ones: %+v", sc)
	}
}

func TestDatasetQuerySizes(t *testing.T) {
	for _, n := range []string{"AIDS", "PDBS", "PCM", "Synthetic"} {
		sizes := QuerySizes(n)
		if len(sizes) == 0 {
			t.Errorf("QuerySizes(%q) empty", n)
		}
		if !sort.IntsAreSorted(sizes) {
			t.Errorf("QuerySizes(%q) = %v, want ascending", n, sizes)
		}
	}
	// The paper queries the dense datasets with larger patterns.
	if QuerySizes("PCM")[0] <= QuerySizes("AIDS")[0] {
		t.Errorf("PCM query sizes %v should exceed AIDS sizes %v",
			QuerySizes("PCM"), QuerySizes("AIDS"))
	}
}

func TestWorkloadLabels(t *testing.T) {
	if got := TypeALabels(); len(got) != 3 {
		t.Errorf("TypeALabels() = %v, want the paper's 3 categories", got)
	}
	if got := TypeBLabels(); len(got) != 3 {
		t.Errorf("TypeBLabels() = %v, want the paper's 3 categories", got)
	}
	all := AllWorkloadLabels()
	if len(all) != 6 {
		t.Errorf("AllWorkloadLabels() = %v, want 6", all)
	}
	seen := map[string]bool{}
	for _, l := range all {
		if seen[l] {
			t.Errorf("duplicate workload label %q", l)
		}
		seen[l] = true
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 10 {
		t.Fatalf("only %d experiments registered; every paper table/figure needs one", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := ExperimentByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ExperimentByID(%q) failed to round-trip", e.ID)
		}
	}
	// Aliases: fig5 and fig6 share one driver.
	for _, alias := range []string{"fig5", "fig6", "FIG5"} {
		if e, ok := ExperimentByID(alias); !ok || e.ID != "fig5-6" {
			t.Errorf("ExperimentByID(%q) = %+v, want fig5-6", alias, e)
		}
	}
	if _, ok := ExperimentByID("fig99"); ok {
		t.Error("unknown id should not resolve")
	}
}

// TestTable1RunningExample pins the exact verdicts of the paper's Table 1
// running example: which two queries each policy evicts at time point
// 100, and that HD resolves to PINC because CoV(R) ≈ 0.65 < 1.
func TestTable1RunningExample(t *testing.T) {
	tables := Table1(NewEnv(tinyScale()))
	if len(tables) != 1 {
		t.Fatalf("Table1 returned %d tables, want 1", len(tables))
	}
	tab := tables[0]
	want := map[string][2]string{
		"LRU":  {"13", "37"},
		"POP":  {"11", "53"},
		"PIN":  {"13", "91"},
		"PINC": {"53", "82"},
		"HD":   {"53", "82"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("Table1 has %d rows, want %d", len(tab.Rows), len(want))
	}
	for _, r := range tab.Rows {
		exp, ok := want[r.Label]
		if !ok {
			t.Errorf("unexpected policy row %q", r.Label)
			continue
		}
		if len(r.Text) != 2 || r.Text[0] != exp[0] || r.Text[1] != exp[1] {
			t.Errorf("%s evicts %v, paper says %v", r.Label, r.Text, exp)
		}
	}
}

func TestTableFormatAndCell(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
	}
	tab.AddRow("r1", 1.5, 2.25)
	tab.AddTextRow("r2", "yes", "no")
	tab.Notes = append(tab.Notes, "a note")

	if v, ok := tab.Cell("r1", "b"); !ok || v != 2.25 {
		t.Errorf("Cell(r1,b) = %v,%v want 2.25,true", v, ok)
	}
	if _, ok := tab.Cell("r1", "zz"); ok {
		t.Error("unknown column should not resolve")
	}
	if _, ok := tab.Cell("zz", "a"); ok {
		t.Error("unknown row should not resolve")
	}

	var plain, md strings.Builder
	tab.Format(&plain)
	tab.FormatMarkdown(&md)
	for _, frag := range []string{"demo", "r1", "1.50", "yes", "a note"} {
		if !strings.Contains(plain.String(), frag) {
			t.Errorf("Format output missing %q:\n%s", frag, plain.String())
		}
	}
	if !strings.Contains(md.String(), "|") || !strings.Contains(md.String(), "r2") {
		t.Errorf("FormatMarkdown output malformed:\n%s", md.String())
	}
}

func TestEnvMemoises(t *testing.T) {
	e := NewEnv(tinyScale())
	if e.Dataset("AIDS") != e.Dataset("AIDS") {
		t.Error("Dataset should be memoised per name")
	}
	if e.Method("ggsx", "AIDS") != e.Method("ggsx", "AIDS") {
		t.Error("Method should be memoised per (name, dataset)")
	}
	if e.Method("ggsx", "AIDS") == e.Method("ggsx", "PDBS") {
		t.Error("methods over different datasets must differ")
	}
	// TypeA workloads are regenerated deterministically, not memoised:
	// same call, same queries.
	a := e.TypeA("AIDS", "ZZ", 1.4)
	b := e.TypeA("AIDS", "ZZ", 1.4)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("TypeA workloads: %d vs %d queries", len(a), len(b))
	}
	for i := range a {
		if !a[i].Graph.StructurallyEqual(b[i].Graph) {
			t.Fatal("TypeA workload generation is not deterministic")
		}
	}
	// Type B pools are memoised (they are the expensive part).
	if e.TypeBPools("AIDS") != e.TypeBPools("AIDS") {
		t.Error("TypeBPools should be memoised per dataset")
	}
}

func TestEnvWorkloadByLabel(t *testing.T) {
	e := NewEnv(tinyScale())
	for _, label := range AllWorkloadLabels() {
		qs := e.Workload("AIDS", label)
		if len(qs) == 0 {
			t.Errorf("Workload(AIDS, %q) empty", label)
		}
	}
}

func TestRunBaselineAndRunGCConsistency(t *testing.T) {
	e := NewEnv(tinyScale())
	m := e.Method("ggsx", "AIDS")
	qs := e.TypeA("AIDS", "ZZ", 1.4)

	base := RunBaseline(m, qs, Warmup)
	gc, c := RunGC(m, core.Options{}, qs, Warmup)

	if base.Queries != len(qs)-Warmup || gc.Queries != len(qs)-Warmup {
		t.Fatalf("measured queries: base %d, gc %d, want %d",
			base.Queries, gc.Queries, len(qs)-Warmup)
	}
	// Identical answers imply identical summed answer sizes.
	if base.Answers != gc.Answers {
		t.Errorf("answer mass differs: base %d, gc %d", base.Answers, gc.Answers)
	}
	if gc.SubIsoTests > base.SubIsoTests {
		t.Errorf("GC ran more sub-iso tests (%d) than the baseline (%d)",
			gc.SubIsoTests, base.SubIsoTests)
	}
	if c.Totals().Queries != int64(len(qs)) {
		t.Errorf("cache saw %d queries, want %d", c.Totals().Queries, len(qs))
	}

	cmp := Comparison{Base: base, GC: gc}
	if cmp.SubIsoSpeedup() < 1 {
		t.Errorf("sub-iso speedup %.2f < 1 on a Zipf workload", cmp.SubIsoSpeedup())
	}
	if cmp.TimeSpeedup() <= 0 {
		t.Errorf("time speedup %.2f must be positive", cmp.TimeSpeedup())
	}
}

func TestCheckAnswersAcrossMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("differential check across methods is not short")
	}
	e := NewEnv(tinyScale())
	qs := e.TypeA("AIDS", "ZU", 1.4)
	for _, name := range []string{"ggsx", "grapes1", "ctindex", "vf2+"} {
		m := e.Method(name, "AIDS")
		if err := CheckAnswers(m, core.Options{CacheSize: 10, WindowSize: 4}, qs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCheckAnswersCatchesLyingMethod injects a faulty Method whose
// verification verdicts are unstable across calls — the kind of bug a
// plugged-in method could ship with. CheckAnswers must flag the
// divergence rather than mask it.
func TestCheckAnswersCatchesLyingMethod(t *testing.T) {
	e := NewEnv(tinyScale())
	lying := &flipFlopMethod{Method: e.Method("vf2+", "AIDS")}
	qs := e.TypeA("AIDS", "UU", 1.4)[:12]
	if err := CheckAnswers(lying, core.Options{CacheSize: 4, WindowSize: 2}, qs); err == nil {
		t.Error("CheckAnswers accepted a method with unstable answers")
	}
}

// flipFlopMethod flips every third verification verdict, simulating a
// buggy plugged-in method.
type flipFlopMethod struct {
	method.Method
	mu    sync.Mutex
	calls int
}

func (f *flipFlopMethod) Verify(q *graph.Graph, id int32) bool {
	v := f.Method.Verify(q, id)
	f.mu.Lock()
	f.calls++
	flip := f.calls%3 == 0
	f.mu.Unlock()
	if flip {
		return !v
	}
	return v
}
