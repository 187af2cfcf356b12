package core

import (
	"testing"
)

// table1Rows reproduces the paper's Table 1 running example: statistics
// for six hypothetical cached queries, with the replacement algorithm
// invoked at serial 100 to evict two entries.
func table1Rows() []EntryStats {
	return []EntryStats{
		{Serial: 11, LastHit: 91, Hits: 23, CSReduction: 170, TimeSaving: 2600},
		{Serial: 13, LastHit: 51, Hits: 32, CSReduction: 80, TimeSaving: 1200},
		{Serial: 37, LastHit: 69, Hits: 26, CSReduction: 76, TimeSaving: 780},
		{Serial: 53, LastHit: 78, Hits: 13, CSReduction: 210, TimeSaving: 360},
		{Serial: 82, LastHit: 90, Hits: 5, CSReduction: 120, TimeSaving: 150},
		{Serial: 91, LastHit: 95, Hits: 4, CSReduction: 10, TimeSaving: 270},
	}
}

// TestTable1RunningExample checks every policy against the evictions the
// paper derives from Table 1 (§6.3).
func TestTable1RunningExample(t *testing.T) {
	rows := table1Rows()
	cases := []struct {
		policy PolicyKind
		want   []int64
	}{
		{LRU, []int64{13, 37}},
		{POP, []int64{11, 53}},
		{PIN, []int64{13, 91}},
		{PINC, []int64{53, 82}},
		{HD, []int64{53, 82}}, // CoV ≈ 0.65 < 1 → PINC
	}
	for _, tc := range cases {
		got := SelectVictims(tc.policy, rows, 100, 2)
		if len(got) != 2 {
			t.Fatalf("%s: got %v", tc.policy, got)
		}
		gotSet := map[int64]bool{got[0]: true, got[1]: true}
		if !gotSet[tc.want[0]] || !gotSet[tc.want[1]] {
			t.Errorf("%s evicts %v, paper says %v", tc.policy, got, tc.want)
		}
	}
}

func TestTable1CoV(t *testing.T) {
	cov2 := covSquared(table1Rows())
	// Paper: mean R = 111, sample std ≈ 72, CoV ≈ 0.65 → CoV² ≈ 0.42.
	if cov2 < 0.40 || cov2 > 0.45 {
		t.Errorf("CoV² = %.3f, want ≈0.42 (CoV ≈ 0.65)", cov2)
	}
}

func TestHDSwitchesToPIN(t *testing.T) {
	// Highly variable R values must push HD to PIN's scoring.
	rs := []int64{1, 1, 1, 1000}   // heavy tail: CoV² > 1
	cs := []float64{1000, 1, 1, 1} // PINC would evict 2 (ties to older)
	var rows []EntryStats
	for i := range rs {
		s := int64(i + 1)
		rows = append(rows, EntryStats{Serial: s, CSReduction: rs[i], TimeSaving: cs[i], Hits: 1, LastHit: s})
	}
	if covSquared(rows) <= 1 {
		t.Fatal("test setup: CoV² must exceed 1")
	}
	got := SelectVictims(HD, rows, 10, 1)
	// PIN utility: R/A → serial 1 has R=1, age 9 → lowest (ties to older).
	if got[0] != 1 {
		t.Errorf("HD (→PIN) evicted %d, want 1", got[0])
	}
	gotPINC := SelectVictims(PINC, rows, 10, 1)
	if gotPINC[0] != 2 {
		t.Errorf("PINC evicted %d, want 2", gotPINC[0])
	}
}

func TestSelectVictimsEdgeCases(t *testing.T) {
	rows := table1Rows()
	if got := SelectVictims(PIN, rows, 100, 0); got != nil {
		t.Error("n=0 must evict nothing")
	}
	if got := SelectVictims(PIN, nil, 100, 3); got != nil {
		t.Error("empty cache must evict nothing")
	}
	got := SelectVictims(PIN, rows, 100, 100)
	if len(got) != len(rows) {
		t.Errorf("over-asking must evict everything: %d", len(got))
	}
}

func TestSelectVictimsTieBreaksOlderFirst(t *testing.T) {
	rows := []EntryStats{{Serial: 9, LastHit: 9}, {Serial: 5, LastHit: 5}}
	for _, p := range []PolicyKind{POP, PIN, PINC} {
		got := SelectVictims(p, rows, 20, 1)
		if got[0] != 5 {
			t.Errorf("%s: tie must evict older serial 5, got %d", p, got[0])
		}
	}
}

func TestCovSquaredDegenerate(t *testing.T) {
	if covSquared([]EntryStats{{Serial: 1}}) != 0 {
		t.Error("single entry must count as low variability")
	}
	if covSquared([]EntryStats{{Serial: 1}, {Serial: 2}}) != 0 {
		t.Error("all-zero R must count as low variability")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]PolicyKind{
		"lru": LRU, "LRU": LRU, "pop": POP, "pin": PIN, "pinc": PINC, "hd": HD, "HD": HD,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("unknown policy must error")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []PolicyKind{LRU, POP, PIN, PINC, HD} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
	if PolicyKind(42).String() != "PolicyKind(42)" {
		t.Error("unknown kind must render diagnostically")
	}
}
