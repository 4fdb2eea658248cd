// Package obs is the repository's observability layer: a dependency-free,
// concurrent-safe metrics registry (counters, gauges, fixed-bucket
// histograms with percentile summaries), a span API that ties wall time
// and bytes to the XOR accounting of core.Ops, and causal traces that
// carry one operation's recovery decisions to the sinks a caller
// attaches (the JSON event log).
//
// Every metric is one series, named by a string literal at the call that
// emits it (docs/METRICS.json catalogs them).
//
// The paper's entire evaluation rests on two observables — XOR counts
// normalized to the k-1 lower bound (Figures 5-8) and encode/decode wall
// time (Figures 9-13). This package makes both first-class runtime
// metrics, read per operation through Registry.Snapshot: XORs per parity
// element, throughput, rebuild progress, degraded reads, scrub repairs.
//
// Everything here is safe for concurrent use: hot-path mutation is one
// atomic add per event, and Snapshot readers never block writers.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing uint64. A nil *Counter (from
// a lookup on a nil registry) is a valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a settable float64 (rebuild progress, queue depth, ...). A
// nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the gauge (atomic read-modify-write).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. All methods are safe for concurrent use, and a nil
// *Registry is accepted everywhere as "record nothing".
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    sync.Map // name -> *SpanFamily: handles on metrics kept above
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil when r is nil (all Counter methods tolerate that only
// if guarded — use Count for nil-safe increments).
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

// Gauge returns the gauge with the given name, creating it on first use.
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

// Histogram returns the histogram with the given name, creating it with
// the given bucket bounds on first use (later calls reuse the existing
// buckets regardless of the bounds argument). Bounds must be ascending;
// an implicit +Inf bucket is always appended.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
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
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Count is a nil-safe counter increment: a no-op when r is nil.
func (r *Registry) Count(name string, n uint64) {
	if r != nil {
		r.Counter(name).Add(n)
	}
}

// SetGauge is a nil-safe gauge store: a no-op when r is nil.
func (r *Registry) SetGauge(name string, v float64) {
	if r != nil {
		r.Gauge(name).Set(v)
	}
}

// Observe is a nil-safe histogram observation using the given bounds on
// first use.
func (r *Registry) Observe(name string, bounds []float64, v float64) {
	if r != nil {
		r.Histogram(name, bounds).Observe(v)
	}
}
