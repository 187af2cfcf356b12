package telemetry

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseProm feeds the exposition parser arbitrary text, which must
// never panic, and feeds a Registry fuzzed label values, help text and
// sample values, whose own exposition must parse back to exactly the
// samples it holds.
func FuzzParseProm(f *testing.F) {
	f.Add("# HELP a_total A.\n# TYPE a_total counter\na_total{k=\"v\"} 3\n", "v", "help", 1.5)
	f.Add("x{le=\"+Inf\",a=\"\\\\\\\"\\n\"} NaN 17\n", `a"b\c`+"\n", "two\nlines \\", math.Inf(-1))
	f.Add("bad{", "\xff\"", "", math.NaN())
	f.Add("", "", "", math.Copysign(0, -1))
	f.Add("A\f", "0", "0", math.Inf(-1)) // a name, then whitespace Fields drops but TrimLeft kept
	f.Fuzz(func(t *testing.T, text, labelValue, help string, v float64) {
		_, _ = ParseProm(strings.NewReader(text)) // any input: samples or an error, never a panic

		r := NewRegistry()
		r.Counter("fz_total", help, L("k", labelValue)).Add(math.Abs(v))
		r.GaugeFunc("fz_gauge", help, func() float64 { return v }, L("k", labelValue), L("j", "fixed"))
		bounds := []float64{-1, 0, 1}
		h := r.Histogram("fz_seconds", help, bounds, L("k", labelValue))
		if !math.IsNaN(v) {
			h.Observe(v)
		}
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		got, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("the registry's own exposition does not parse: %v\n%s", err, b.String())
		}

		want := []Sample{
			{"fz_total", map[string]string{"k": labelValue}, math.Abs(v)},
			{"fz_gauge", map[string]string{"k": labelValue, "j": "fixed"}, v},
		}
		count, sum := 0.0, 0.0
		if !math.IsNaN(v) {
			count, sum = 1, sum+v
		}
		for i, le := range []string{"-1", "0", "1", "+Inf"} {
			in := 0.0
			if i == len(bounds) || v <= bounds[i] {
				in = count
			}
			want = append(want, Sample{"fz_seconds_bucket", map[string]string{"k": labelValue, "le": le}, in})
		}
		want = append(want,
			Sample{"fz_seconds_sum", map[string]string{"k": labelValue}, sum},
			Sample{"fz_seconds_count", map[string]string{"k": labelValue}, count})

		if len(got) != len(want) {
			t.Fatalf("parsed %d samples, the registry holds %d:\n%s", len(got), len(want), b.String())
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || !sameValue(g.Value, w.Value) || len(g.Labels) != len(w.Labels) {
				t.Fatalf("sample %d parsed as %s%q %v, want %s%q %v", i, g.Name, g.Labels, g.Value, w.Name, w.Labels, w.Value)
			}
			for k, lv := range w.Labels {
				if g.Labels[k] != lv {
					t.Fatalf("sample %d: label %s = %q, want %q", i, k, g.Labels[k], lv)
				}
			}
		}
	})
}

// sameValue reports whether a sample value survived the round trip: equal
// with the same sign (so -0 is not 0), or both NaN.
func sameValue(a, b float64) bool {
	return a == b && math.Signbit(a) == math.Signbit(b) || math.IsNaN(a) && math.IsNaN(b)
}
