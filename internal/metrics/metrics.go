// Package metrics is the observability core of the ncqd daemons: a
// small in-process metric registry built on expvar's lock-free
// primitives (expvar.Int, expvar.Float), rendered in the Prometheus
// text exposition format at GET /v1/metrics.
//
// The package deliberately implements the minimal surface the serving
// layer needs — counters, gauges, latency histograms, each optionally
// labelled, plus sampled *Func variants for values that already live
// elsewhere (cache statistics, pool widths, admission counters) — with
// no dependency outside the standard library. Each Server and each
// cluster Coordinator owns its own Registry, so httptest instances in
// the same process never collide.
//
// Metric names follow the Prometheus conventions: an "ncq_" namespace
// prefix, "_total" on counters, base units in the name
// ("..._seconds", "..._bytes"). Every exported series is documented in
// docs/OPERATIONS.md; scripts/docscheck fails CI when one is not.
package metrics

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry holds a set of metric families in registration order.
// Registration (the Counter/Gauge/Histogram constructors) panics on a
// duplicate or invalid name — metric wiring is programmer-controlled
// start-up code, not input handling. All methods are safe for
// concurrent use.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric family: a help string, a type, a label
// schema, and its series (one per distinct label-value tuple).
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge" or "histogram"
	labels  []string
	buckets []float64 // histograms only

	fn func() float64 // sampled families (CounterFunc/GaugeFunc)

	mu     sync.Mutex
	order  []string // series creation order, keys into series
	series map[string]any
	labset map[string][]string // series key -> label values
}

// register adds a family, panicking on duplicates or empty names.
func (r *Registry) register(f *family) *family {
	if f.name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic("metrics: duplicate metric " + f.name)
	}
	f.series = make(map[string]any)
	f.labset = make(map[string][]string)
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// seriesKey joins label values into a map key. \xff cannot appear in
// valid UTF-8 label values, so the join is collision-free.
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// with returns the family's series for the label values, creating it
// on first use via mk. Panics on label arity mismatches.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s: got %d label values, want %d (%v)",
			f.name, len(values), len(f.labels), f.labels))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.labset[key] = append([]string(nil), values...)
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ v expvar.Int }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (a counter never decreases).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v expvar.Int }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Set(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Value() }

// Histogram accumulates observations into cumulative buckets — the
// Prometheus histogram shape, quantile-queryable server-side with
// histogram_quantile(). Buckets hold upper bounds in ascending order;
// the +Inf bucket is implicit.
type Histogram struct {
	buckets []float64
	counts  []expvar.Int // one per bucket, +Inf last
	sum     expvar.Float
	count   expvar.Int
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]expvar.Int, len(buckets)+1)}
}

// Observe records one observation (for latency histograms: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Value() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets are the default latency buckets, in seconds: 100µs to
// 10s, roughly logarithmic — wide enough for a cached in-process hit
// and a cross-cluster scatter alike.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label
// name, in registration order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.with(labelValues, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.with(labelValues, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f *family
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.with(labelValues, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(&family{name: name, help: help, typ: "counter", labels: labels})
	return &CounterVec{f: f}
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(&family{name: name, help: help, typ: "gauge", labels: labels})
	return &GaugeVec{f: f}
}

// Histogram registers an unlabelled histogram with the given upper
// bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers a histogram family with the given upper
// bounds (nil = DefBuckets) and label names. Bounds must be sorted
// ascending.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("metrics: " + name + ": histogram buckets must be sorted")
	}
	f := r.register(&family{name: name, help: help, typ: "histogram", labels: labels, buckets: buckets})
	return &HistogramVec{f: f}
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time — for monotone counts that already live elsewhere
// (cache hit totals, admission rejections) and would be double
// bookkeeping as a live Counter.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", fn: fn})
}

// GaugeFunc registers a gauge sampled from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", fn: fn})
}
