// Package obs is the repo's dependency-free observability layer: an
// atomic metrics registry with Prometheus text-format exposition, and a
// lightweight span recorder for per-query traces.
//
// Metrics are typed handles (Counter, Gauge, Histogram, and their
// single-label Vec forms) registered against a Registry: the package
// Default for the engine and persistence layers, and one registry per
// serve.Service for the serving counters. oniond's GET /metrics writes
// Default, then its Service's registry (Handler). Every mutation is a
// single atomic op behind one atomic enabled-check, so instrumentation
// adds no per-row work (query.TestTracingOffAllocs; the served cost is
// benchmark/'s oniond.trace_overhead_pct).
//
// Tracing (trace.go) is opt-in per query: a nil *Span is the disabled
// recorder, and every method is a nil-receiver no-op, so code threads
// spans unconditionally and pays nothing — not even an allocation —
// when tracing is off.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// disabled flips all metric mutations into no-ops (reads still work).
// The zero value means enabled: the common path loads one false bool.
var disabled atomic.Bool

// SetEnabled turns metric collection on or off process-wide. Its one
// user is query.TestTracingOffAllocs, whose uninstrumented baseline runs
// with collection off; servers leave it on. Since a serve.Service reads
// its /stats counters from its registry, turning collection off also
// freezes them.
func SetEnabled(on bool) { disabled.Store(!on) }

// LatencyBuckets is the fixed log-scaled bucket ladder shared by every
// latency histogram: a 1-2.5-5 progression per decade from 10µs to 10s,
// 19 finite upper bounds plus the implicit +Inf overflow.
var LatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3,
	10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64. The nil Counter is a
// valid no-op, matching the nil-span convention.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil || disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 instant value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || disabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil || disabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Buckets hold
// per-bucket (non-cumulative) atomic counts; exposition accumulates
// them into the Prometheus cumulative form, and the total count is
// derived from the buckets so a concurrent scrape always sees
// _count equal to the +Inf bucket. The sum is float64 bits updated by
// CAS — observations are per-query, not per-row, so the loop never
// sees real contention.
type Histogram struct {
	bounds []float64 // inclusive upper bounds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value (seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil || disabled.Load() {
		return
	}
	// Binary search for the first bound >= v: bounds are inclusive
	// upper limits, matching Prometheus le semantics.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.bounds) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || disabled.Load() {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations (the sum of the
// bucket counts).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n + h.inf.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts (per ascending bound, then
// +Inf), the total count and the sum. The count is the +Inf cumulative
// figure, so a scrape racing observations still satisfies the format's
// _count == +Inf invariant.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	sum = math.Float64frombits(h.sum.Load())
	cum = make([]uint64, len(h.bounds)+1)
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cum[i] = acc
	}
	cum[len(h.bounds)] = acc + h.inf.Load()
	return cum, cum[len(h.bounds)], sum
}

// family is one exposition family: a metric name with HELP/TYPE text
// and its children (one per label value; unlabeled metrics have a
// single child under the empty label value).
type family struct {
	name  string
	help  string
	typ   string // "counter" | "gauge" | "histogram"
	label string // label key, "" when unlabeled

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	bounds   []float64 // histogram families only
}

func (f *family) counter(lv string) *Counter {
	f.mu.RLock()
	c := f.counters[lv]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.counters[lv]; c == nil {
		c = &Counter{}
		f.counters[lv] = c
	}
	return c
}

func (f *family) gauge(lv string) *Gauge {
	f.mu.RLock()
	g := f.gauges[lv]
	f.mu.RUnlock()
	if g != nil {
		return g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g = f.gauges[lv]; g == nil {
		g = &Gauge{}
		f.gauges[lv] = g
	}
	return g
}

func (f *family) histogram(lv string) *Histogram {
	f.mu.RLock()
	h := f.hists[lv]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h = f.hists[lv]; h == nil {
		h = newHistogram(f.bounds)
		f.hists[lv] = h
	}
	return h
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ fam *family }

// With returns the counter for the given label value, creating it on
// first use. Hot paths should hoist the result rather than call With
// per operation.
func (v *CounterVec) With(labelValue string) *Counter { return v.fam.counter(labelValue) }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label value.
func (v *GaugeVec) With(labelValue string) *Gauge { return v.fam.gauge(labelValue) }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label value.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.fam.histogram(labelValue) }

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry the package-level engine and
// persistence metrics register against; oniond's GET /metrics writes it
// first.
var Default = NewRegistry()

// register returns the family for name, creating it with the given
// shape, and panics on a shape conflict — re-registering a name with a
// different type or label key is a programming error, not runtime
// input.
func (r *Registry) register(name, help, typ, label string, bounds []float64) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if label != "" && !validLabelName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		if f.typ != typ || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q (was %s/%q)",
				name, typ, label, f.typ, f.label))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ, label: label,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		bounds:   bounds,
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", "", nil).counter("")
}

// CounterVec registers (or fetches) a counter family with one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", label, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", "", nil).gauge("")
}

// GaugeVec registers (or fetches) a gauge family with one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, "gauge", label, nil)}
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (use LatencyBuckets for latencies).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, "histogram", "", bounds).histogram("")
}

// HistogramVec registers (or fetches) a histogram family with one
// label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, "histogram", label, bounds)}
}

// families returns the registered families sorted by name, and for
// each the sorted label values present.
func (r *Registry) families() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (f *family) labelValues() []string {
	f.mu.RLock()
	seen := make(map[string]bool)
	for lv := range f.counters {
		seen[lv] = true
	}
	for lv := range f.gauges {
		seen[lv] = true
	}
	for lv := range f.hists {
		seen[lv] = true
	}
	f.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for lv := range seen {
		out = append(out, lv)
	}
	sort.Strings(out)
	return out
}
