// Package telemetry is the fleet's dependency-free observability core:
// atomic counters, gauges and fixed-bucket latency histograms with a
// Prometheus text-exposition writer, a text-format parser for tests and
// drills, and per-request tracing primitives (request ids, spans). Both
// serving tiers — gcserved, fed by each query's QueryStats and core's
// Observer hook, and gcrouter — feed a Registry from this package and
// expose it at GET /metrics.
//
// The package deliberately has no third-party dependencies: metrics are
// plain atomics, exposition is the Prometheus text format written by
// hand, and the parser exists so CI can check the grammar of a live
// endpoint without promtool.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the families a Registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// atomicFloat64 is a float64 updated via CAS on its bit pattern, used for
// histogram sums and float-valued counters.
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat64) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat64) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically non-decreasing cumulative metric.
type Counter struct {
	v atomicFloat64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; v must be non-negative to keep the counter monotone.
func (c *Counter) Add(v float64) { c.v.Add(v) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a metric that can go up and down. A Gauge constructed with
// GaugeFunc reads its value from a callback at exposition time instead.
type Gauge struct {
	v  atomicFloat64
	fn func() float64 // nil for settable gauges
}

// Set stores v. No-op for callback gauges.
func (g *Gauge) Set(v float64) {
	if g.fn == nil {
		g.v.Store(v)
	}
}

// Add adds v. No-op for callback gauges.
func (g *Gauge) Add(v float64) {
	if g.fn == nil {
		g.v.Add(v)
	}
}

// Value returns the current value, consulting the callback if present.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative-at-exposition latency histogram.
// Buckets are defined by ascending upper bounds; an implicit +Inf bucket
// catches the overflow. Observations are lock-free atomic increments.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; per-bucket (non-cumulative)
	sum    atomicFloat64
	total  atomic.Uint64
}

// DefBuckets is the default latency bucket layout in seconds: 100µs to
// ~100s in roughly 1-2.5-5 steps, suiting both sub-millisecond probe
// stages and multi-second cold verifications.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// SizeBuckets is a bucket layout for dimensionless sizes (batch sizes,
// candidate counts): 1 to 4096 in powers of four-ish.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// snapshot returns per-bucket counts (non-cumulative), count and sum.
// The three reads are not one atomic cut, which Prometheus tolerates.
func (h *Histogram) snapshot() (buckets []uint64, count uint64, sum float64) {
	buckets = make([]uint64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, h.total.Load(), h.sum.Load()
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts
// by linear interpolation within the target bucket, the same estimate
// Prometheus's histogram_quantile computes. Returns NaN with no
// observations. Values in the +Inf bucket clamp to the largest finite
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	buckets, count, _ := h.snapshot()
	return quantile(q, h.bounds, buckets, count)
}

func quantile(q float64, bounds []float64, buckets []uint64, count uint64) float64 {
	if count == 0 || q <= 0 || q > 1 || len(bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(count)
	var cum uint64
	for i, c := range buckets {
		cum += c
		if float64(cum) >= rank {
			if i >= len(bounds) { // +Inf bucket: clamp
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			if c == 0 {
				return hi
			}
			inBucket := rank - float64(cum-c)
			return lo + (hi-lo)*(inBucket/float64(c))
		}
	}
	return bounds[len(bounds)-1]
}

// series is one labelled instance of a metric family.
type series struct {
	labels string // pre-rendered `k1="v1",k2="v2"`, "" if unlabelled
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and writes them in the Prometheus text
// exposition format. Metric constructors are get-or-create: asking twice
// for the same name+labels returns the same instance, so callers can
// resolve lazily (e.g. a per-backend histogram on fleet join) without
// tracking registration state. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

func (f *family) get(labels []Label, make func() *series) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := make()
	s.labels = key
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter series name{labels...}, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter)
	return f.get(labels, func() *series { return &series{ctr: &Counter{}} }).ctr
}

// Gauge returns the settable gauge series name{labels...}, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, kindGauge)
	return f.get(labels, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — for instantaneous views like queue depth. Re-registering the
// same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, kindGauge)
	s := f.get(labels, func() *series { return &series{gauge: &Gauge{}} })
	f.mu.Lock()
	s.gauge.fn = fn
	f.mu.Unlock()
}

// Histogram returns the histogram series name{labels...} with the given
// bucket upper bounds (nil for DefBuckets), creating it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.family(name, help, kindHistogram)
	return f.get(labels, func() *series { return &series{hist: newHistogram(bounds)} }).hist
}

// renderLabels renders sorted k="v" pairs; values are escaped per the
// exposition format (backslash, double-quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	// Byte by byte: the escapes are ASCII, and every other byte, valid
	// UTF-8 or not, is written as it came.
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// joinLabels merges a series' pre-rendered labels with one extra
// rendered pair (used for histogram le labels).
func joinLabels(base, extra string) string {
	switch {
	case base == "":
		return extra
	case extra == "":
		return base
	default:
		return base + "," + extra
	}
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes every family in registration order in the Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		series := make([]*series, len(f.series))
		copy(series, f.series)
		f.mu.Unlock()

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		return writeSample(w, f.name, s.labels, s.ctr.Value())
	case kindGauge:
		return writeSample(w, f.name, s.labels, s.gauge.Value())
	case kindHistogram:
		h := s.hist
		buckets, count, sum := h.snapshot()
		var cum uint64
		for i, c := range buckets {
			cum += c
			bound := "+Inf"
			if i < len(h.bounds) {
				bound = formatValue(h.bounds[i])
			}
			le := `le="` + bound + `"`
			if err := writeSample(w, f.name+"_bucket", joinLabels(s.labels, le), float64(cum)); err != nil {
				return err
			}
		}
		if err := writeSample(w, f.name+"_sum", s.labels, sum); err != nil {
			return err
		}
		return writeSample(w, f.name+"_count", s.labels, float64(count))
	}
	return nil
}

func writeSample(w io.Writer, name, labels string, v float64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	return err
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}
