package raidsim

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Instrument attaches a metrics registry to the array. Every subsequent
// Read/Write/Rebuild/Scrub records a span (raid.read, raid.write,
// raid.rebuild, raid.scrub) carrying latency, bytes, and the element-
// operation counts of the coding work it triggered; the array-level
// event counters (degraded reads, small writes, scrub repairs)
// and the raid.rebuild.progress gauge update live. The spans and event
// counters are resolved here, once, so recording them takes no lock,
// map lookup or allocation. When the underlying code is obs.Observable
// it is instrumented with the same registry, so the per-algorithm spans
// (liberation.encode, rdp.decode, ...) nest alongside. Pass nil to
// detach.
func (a *Array) Instrument(reg *obs.Registry) {
	a.obs = reg
	a.met = arrayMetrics{
		read:             reg.Family("raid.read"),
		write:            reg.Family("raid.write"),
		rebuild:          reg.Family("raid.rebuild"),
		scrub:            reg.Family("raid.scrub"),
		stripeEncodes:    reg.LazyCounter("raid.stripe_encodes"),
		smallWrites:      reg.LazyCounter("raid.small_writes"),
		parityElemWrites: reg.LazyCounter("raid.parity_elem_writes"),
		degradedReads:    reg.LazyCounter("raid.degraded_reads"),
		stripesRebuilt:   reg.LazyCounter("raid.stripes_rebuilt"),
		scrubRepairs:     reg.LazyCounter("raid.scrub.repairs"),
	}
	if o, ok := a.code.(obs.Observable); ok {
		o.Instrument(reg)
	}
}

// arrayMetrics holds the array's span families and event counters, all
// nil (recording nothing) on an uninstrumented array.
type arrayMetrics struct {
	read, write, rebuild, scrub *obs.SpanFamily

	stripeEncodes, smallWrites, parityElemWrites *obs.LazyCounter
	degradedReads, stripesRebuilt, scrubRepairs  *obs.LazyCounter
}

// Registry returns the metrics sink attached with Instrument (nil when
// uninstrumented).
func (a *Array) Registry() *obs.Registry { return a.obs }

// Metrics captures the current metric state. Safe on an uninstrumented
// array (returns an empty snapshot).
func (a *Array) Metrics() obs.Snapshot { return a.obs.Snapshot() }

// span starts an observation of one array operation, remembering the
// ops counter position so only the coding work of this call is billed
// to it. On an uninstrumented array it and end do nothing.
func (a *Array) span(f *obs.SpanFamily) arraySpan {
	if a.obs == nil {
		return arraySpan{}
	}
	return arraySpan{sp: f.Start(), before: a.Stats.Ops}
}

type arraySpan struct {
	sp     obs.Span
	before core.Ops
}

// end closes the span, attributing the ops delta since span() and the
// given payload size.
func (s *arraySpan) end(a *Array, bytes int, err error) {
	if a.obs == nil {
		return
	}
	delta := a.Stats.Ops
	delta.XORs -= s.before.XORs
	delta.Copies -= s.before.Copies
	delta.Zeros -= s.before.Zeros
	s.sp.Bytes(bytes).Units(1).Ops(delta).End(err)
}
