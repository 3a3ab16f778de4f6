// Package obs is the analyzer's self-telemetry layer: a zero-dependency,
// concurrency-safe metrics registry (atomic counters, gauges, log-linear
// latency histograms) plus lightweight spans that export Chrome
// trace_event JSON — so the tool that diagnoses fluctuations in other
// high-throughput software can be diagnosed the same way itself.
//
// The paper's core lesson applies reflexively: post-hoc dumps are not
// enough to explain a fluctuation; you need a live, low-overhead stream
// of the internal state. The analyzer's own internal state — shard
// balance, symbol-cache hit rates, PEBS ring occupancy, free-list churn,
// per-item confidence — is published here and surfaced by fluctd and
// `fluct -serve` (Prometheus text /metrics, expvar, pprof, /healthz).
//
// Everything is nil-safe by design: every method on a nil *Registry,
// *Counter, *Gauge, or *Histogram is a no-op, so instrumented hot paths
// pay only a nil check when telemetry is disabled (SetDefault(nil)).
// Names follow the scheme fluct_<pkg>_<name>, with counters suffixed
// _total (see DESIGN.md §9).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (set or adjusted atomically).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value. No-op on nil.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Add adjusts the gauge by d (CAS loop). No-op on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. All methods are safe for concurrent use
// and safe on a nil receiver (returning nil metrics, whose methods are
// in turn no-ops) — instrumentation sites never need to branch on
// whether telemetry is enabled.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
	}
}

// defaultReg is the process-wide default registry, live from init so a
// plain `import obs` instruments immediately; SetDefault(nil) disables.
var defaultReg atomic.Pointer[Registry]

func init() { defaultReg.Store(NewRegistry()) }

// Default returns the process-wide default registry, or nil when
// telemetry is disabled.
func Default() *Registry { return defaultReg.Load() }

// SetDefault installs r (which may be nil, disabling default-registry
// telemetry) and returns the previous default. Benchmarks use it to pin
// the instrumented/uninstrumented variants of a hot path.
func SetDefault(r *Registry) *Registry {
	return defaultReg.Swap(r)
}

// Counter returns the named counter, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers fn as a lazily evaluated gauge: it is called at
// scrape time, so hot paths that already maintain their own atomic
// counters (e.g. the shared symbol-cache hit counts) can be exported
// with zero added cost on the path itself. Re-registering a name
// replaces the function. No-op on nil.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// MetricPoint is one exported sample of the registry state.
type MetricPoint struct {
	Name string
	Kind string // "counter" | "gauge" | "summary"
	// Value holds the scalar for counters/gauges.
	Value float64
	// Summary fields (histograms).
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
}

// Snapshot returns every metric as a point, sorted by name, so exports
// (Prometheus text, expvar JSON) are deterministic. Returns nil on a
// nil registry.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	pts := make([]MetricPoint, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		pts = append(pts, MetricPoint{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		pts = append(pts, MetricPoint{Name: name, Kind: "gauge", Value: g.Value()})
	}
	type lazy struct {
		name string
		fn   func() float64
	}
	lazies := make([]lazy, 0, len(r.funcs))
	for name, fn := range r.funcs {
		lazies = append(lazies, lazy{name, fn})
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		pts = append(pts, MetricPoint{
			Name: name, Kind: "summary",
			Count: s.Count, Sum: s.Sum,
			P50: s.Quantile(0.5), P95: s.Quantile(0.95), P99: s.Quantile(0.99),
		})
	}
	r.mu.RUnlock()
	// Lazy gauges run outside the registry lock: they may themselves
	// grab locks (or call back into the registry) and must not deadlock.
	for _, l := range lazies {
		pts = append(pts, MetricPoint{Name: l.name, Kind: "gauge", Value: l.fn()})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Name < pts[j].Name })
	return pts
}

// Vars returns the snapshot as a name→value map for expvar publication.
// Histograms expand into a sub-map with quantiles, count, and sum.
func (r *Registry) Vars() map[string]any {
	out := map[string]any{}
	for _, p := range r.Snapshot() {
		if p.Kind == "summary" {
			out[p.Name] = map[string]any{
				"count": p.Count, "sum": p.Sum,
				"p50": p.P50, "p95": p.P95, "p99": p.P99,
			}
			continue
		}
		out[p.Name] = p.Value
	}
	return out
}

// promValue renders a float in Prometheus text exposition form.
func promValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
