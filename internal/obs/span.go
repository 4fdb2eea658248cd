package obs

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// A SpanFamily is one span name bound to a registry, the handle every
// span records through. A span of the family records, under the naming
// convention Snapshot reassembles:
//
//	<name>.seconds  histogram  operation latency
//	<name>.calls    counter    completed operations
//	<name>.errors   counter    operations that returned an error
//	<name>.bytes    counter    data bytes processed
//	<name>.units    counter    work units (e.g. parity elements written)
//	<name>.xors     counter    element XORs (the paper's cost metric)
//	<name>.copies   counter    element copies (free in the cost model)
//	<name>.zeros    counter    element zeroings (memory traffic only)
//
// Each metric is looked up on its first non-zero record, so a snapshot
// holds only metrics that recorded something, and held from then on:
// recording a span is two monotonic clock reads and one atomic add per
// metric, with no string building, map lookup, lock or allocation. A nil
// *SpanFamily (from a nil registry) records nothing and reads no clock,
// so instrumentation can be left in place unconditionally.
type SpanFamily struct {
	seconds LazyHistogram
	calls   LazyCounter
	errors  LazyCounter
	bytes   LazyCounter
	units   LazyCounter
	xors    LazyCounter
	copies  LazyCounter
	zeros   LazyCounter
}

// Family returns the span family name on r, creating the handle on
// first use; every call with the same name returns the same handle. A
// nil registry returns nil. Resolve a family once, where the registry is
// attached, and record through it on the hot path.
func (r *Registry) Family(name string) *SpanFamily {
	if r == nil {
		return nil
	}
	if f, ok := r.spans.Load(name); ok {
		return f.(*SpanFamily)
	}
	counter := func(suffix string) LazyCounter { return LazyCounter{reg: r, name: name + suffix} }
	f, _ := r.spans.LoadOrStore(name, &SpanFamily{
		seconds: LazyHistogram{reg: r, name: name + ".seconds", bounds: LatencyBuckets},
		calls:   counter(".calls"),
		errors:  counter(".errors"),
		bytes:   counter(".bytes"),
		units:   counter(".units"),
		xors:    counter(".xors"),
		copies:  counter(".copies"),
		zeros:   counter(".zeros"),
	})
	return f.(*SpanFamily)
}

// epoch anchors the span clock. A span reads only the monotonic clock,
// as an offset from epoch: time.Now also reads the wall clock, which
// makes a span's two clock reads about 45 ns dearer on a 2-vCPU Xeon
// (BenchmarkSpanClock).
var epoch = time.Now()

// Start begins a span of the family. The span is a value: it records
// nothing until it ends, and the zero Span (from a nil family) never
// does.
func (f *SpanFamily) Start() Span {
	if f == nil {
		return Span{}
	}
	return Span{f: f, start: time.Since(epoch)}
}

// A Span measures one operation of a family: wall time, bytes processed,
// work units (parity or recovered elements) and the element-operation
// counts of core.Ops. Its setters return the span, so a span chains
// like sp.Bytes(n).Units(u).End(err). A code operation counts straight
// into its span:
//
//	sp := c.EncodeSpan.Start()
//	err := c.encode(s, sp.Count(ops))
//	sp.Bytes(s.DataSize()).Units(parityElems).EndInto(ops, err)
type Span struct {
	f     *SpanFamily
	start time.Duration // monotonic, since epoch
	bytes uint64
	units uint64
	ops   core.Ops
}

// Count returns the Ops an operation under the span counts its element
// operations into: the span's own, which EndInto records and then adds
// to ops, or, on an inert span, ops itself.
func (s *Span) Count(ops *core.Ops) *core.Ops {
	if s.f == nil {
		return ops
	}
	return &s.ops
}

// Bytes sets the data bytes the operation processed.
func (s *Span) Bytes(n int) *Span {
	if n > 0 {
		s.bytes = uint64(n)
	}
	return s
}

// Units sets the operation's work-unit count — parity elements written for
// an encode, missing elements recovered for a decode — the denominator of
// the paper's XORs-per-bit metric.
func (s *Span) Units(n int) *Span {
	if n > 0 {
		s.units = uint64(n)
	}
	return s
}

// Ops accumulates element-operation counts into the span.
func (s *Span) Ops(o core.Ops) *Span {
	s.ops.Add(o)
	return s
}

// End stops the span and records it; err != nil additionally bumps the
// error counter. It returns the measured duration (zero for no-op
// spans).
func (s *Span) End(err error) time.Duration {
	f := s.f
	if f == nil {
		return 0
	}
	d := time.Since(epoch) - s.start
	f.seconds.Observe(d.Seconds())
	f.calls.Add(1)
	if err != nil {
		f.errors.Add(1)
	}
	add := func(c *LazyCounter, n uint64) {
		if n > 0 {
			c.Add(n)
		}
	}
	add(&f.bytes, s.bytes)
	add(&f.units, s.units)
	add(&f.xors, s.ops.XORs)
	add(&f.copies, s.ops.Copies)
	add(&f.zeros, s.ops.Zeros)
	return d
}

// EndInto ends a span whose operation counted through Count, then adds
// the span's counts to ops, where the operation would have counted
// unobserved.
func (s *Span) EndInto(ops *core.Ops, err error) {
	if s.f != nil {
		s.End(err)
		ops.Add(s.ops)
	}
}

// A LazyCounter is a counter name bound to a registry: the counter is
// looked up (and created) on the first Add and held from then on, so a
// counter that is never added to never appears in a snapshot. A nil
// *LazyCounter (from a nil registry) is a valid no-op. Concurrent first
// Adds resolve to the one registry counter.
type LazyCounter struct {
	reg  *Registry
	name string
	c    atomic.Pointer[Counter]
}

// LazyCounter returns a handle on the counter name, which is created on
// the handle's first Add. A nil registry returns nil.
func (r *Registry) LazyCounter(name string) *LazyCounter {
	if r == nil {
		return nil
	}
	return &LazyCounter{reg: r, name: name}
}

// Add increments the counter by n, creating it on first use.
func (l *LazyCounter) Add(n uint64) {
	if l == nil {
		return
	}
	c := l.c.Load()
	if c == nil {
		c = l.reg.Counter(l.name)
		l.c.Store(c)
	}
	c.Add(n)
}

// A LazyHistogram is LazyCounter for a histogram: created, with its
// bounds, on the first Observe.
type LazyHistogram struct {
	reg    *Registry
	name   string
	bounds []float64
	h      atomic.Pointer[Histogram]
}

// LazyHistogram returns a handle on the histogram name, which is created
// with the given bounds on the handle's first Observe. A nil registry
// returns nil.
func (r *Registry) LazyHistogram(name string, bounds []float64) *LazyHistogram {
	if r == nil {
		return nil
	}
	return &LazyHistogram{reg: r, name: name, bounds: bounds}
}

// Observe records one value, creating the histogram on first use.
func (l *LazyHistogram) Observe(v float64) {
	if l == nil {
		return
	}
	h := l.h.Load()
	if h == nil {
		h = l.reg.Histogram(l.name, l.bounds)
		l.h.Store(h)
	}
	h.Observe(v)
}
