package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("t_total", "help"); again != c {
		t.Fatal("Counter is not get-or-create")
	}
	if labelled := r.Counter("t_total", "help", L("k", "v")); labelled == c {
		t.Fatal("distinct label sets must be distinct series")
	}

	depth := 7.0
	r.GaugeFunc("t_fn", "help", func() float64 { return depth })
	depth -= 2
	r.GaugeFunc("t_fn", "help", func() float64 { return depth * 2 }, L("k", "v"))
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if text := b.String(); !strings.Contains(text, "t_fn 5\n") || !strings.Contains(text, "t_fn{k=\"v\"} 10\n") {
		t.Fatalf("gauges not read at exposition time:\n%s", text)
	}
	r.GaugeFunc("t_fn", "help", func() float64 { return 42 })
	b.Reset()
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if text := b.String(); !strings.Contains(text, "t_fn 42\n") {
		t.Fatalf("re-registered gauge keeps its old callback:\n%s", text)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 18 {
		t.Fatalf("sum = %v, want 18", got)
	}
	buckets, _, _ := h.snapshot()
	// le=1 gets {0.5, 1}; le=2 gets {1.5, 2}; le=5 gets {3}; +Inf gets {10}.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, buckets[i], w, buckets)
		}
	}
}

// TestExpositionParseBack is the golden test: everything the writer
// emits must round-trip through the grammar parser, and the parsed
// samples must carry the written values.
func TestExpositionParseBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.", L("code", "200")).Add(3)
	r.Counter("app_requests_total", "Total requests.", L("code", "500")).Inc()
	r.GaugeFunc("app_queue_depth", "Queue depth.", func() float64 { return 4 }, L("backend", "127.0.0.1:9001"))
	r.GaugeFunc("app_up", "Always up.", func() float64 { return 1 })
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, L("stage", "probe"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	// A label value exercising the escape rules.
	r.Counter("app_weird_total", "Weird \\ help\nwith newline.", L("path", `a"b\c`+"\n")).Inc()

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := b.String()

	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not match the text-format grammar:\n%s\nerror: %v", text, err)
	}

	find := func(name string, labels map[string]string) *Sample {
		for i := range samples {
			s := &samples[i]
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range labels {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				return s
			}
		}
		t.Fatalf("sample %s%v not found in:\n%s", name, labels, text)
		return nil
	}

	if s := find("app_requests_total", map[string]string{"code": "200"}); s.Value != 3 {
		t.Fatalf("requests{200} = %v, want 3", s.Value)
	}
	if s := find("app_queue_depth", map[string]string{"backend": "127.0.0.1:9001"}); s.Value != 4 {
		t.Fatalf("queue depth = %v, want 4", s.Value)
	}
	if s := find("app_up", nil); s.Value != 1 {
		t.Fatalf("up = %v, want 1", s.Value)
	}
	// Histogram: cumulative buckets, sum, count.
	if s := find("app_latency_seconds_bucket", map[string]string{"stage": "probe", "le": "0.01"}); s.Value != 1 {
		t.Fatalf("le=0.01 = %v, want 1", s.Value)
	}
	if s := find("app_latency_seconds_bucket", map[string]string{"stage": "probe", "le": "0.1"}); s.Value != 2 {
		t.Fatalf("le=0.1 = %v, want 2 (cumulative)", s.Value)
	}
	if s := find("app_latency_seconds_bucket", map[string]string{"stage": "probe", "le": "+Inf"}); s.Value != 3 {
		t.Fatalf("le=+Inf = %v, want 3", s.Value)
	}
	if s := find("app_latency_seconds_count", map[string]string{"stage": "probe"}); s.Value != 3 {
		t.Fatalf("count = %v, want 3", s.Value)
	}
	if s := find("app_weird_total", map[string]string{"path": `a"b\c` + "\n"}); s.Value != 1 {
		t.Fatalf("escaped label round-trip = %v, want 1", s.Value)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	bad := []string{
		"1badname 3\n",
		"ok{unclosed=\"v\n",
		"ok{k=unquoted} 1\n",
		"ok{k=\"v\"} notanumber\n",
		"ok{k=\"bad\\escape\"} 1\n",
		"# TYPE ok sideways\n",
		"ok 1 2 3\n",
	}
	for _, in := range bad {
		if _, err := ParseProm(strings.NewReader(in)); err == nil {
			t.Errorf("ParseProm accepted %q", in)
		}
	}
}

// TestConcurrentMetrics hammers one registry from many goroutines; run
// under -race it is the read-modify-write audit for the metrics core.
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c_total", "h")
			h := r.Histogram("h_seconds", "h", nil)
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.GaugeFunc("g", "h", func() float64 { return float64(i) })
				h.Observe(float64(i) / 1000)
				if i%100 == 0 {
					var b strings.Builder
					if err := r.WriteProm(&b); err != nil {
						t.Errorf("WriteProm: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "h").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v, want 8000", got)
	}
	if got := r.Histogram("h_seconds", "h", nil).Count(); got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatal("request ids collide")
	}
	if len(a) != 16 {
		t.Fatalf("request id %q, want 16 hex chars", a)
	}
}
