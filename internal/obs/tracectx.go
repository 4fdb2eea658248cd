package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// This file is the causal half of the observability layer. The metrics
// Span answers "how much, how fast" in aggregate; the types here answer
// "why did THIS operation do what it did": every recovery decision —
// each retry, quarantine, strip erased for its stripe — becomes
// a child span or event of one request-scoped trace, carried through the
// stack via context.Context and fanned out to the sinks the tracer was
// built with (the JSON event log; tests collect events with their own).

// A TraceID identifies one causally-related operation tree (one decode,
// one repair, one fault episode). Zero means "no trace".
type TraceID uint64

func (id TraceID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// A SpanID identifies one span within its trace. Zero means "no span"
// (the root span's parent).
type SpanID uint32

func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%08x", uint32(id))
}

// Attr is a typed event attribute; use the slog constructors
// (slog.String, slog.Int, ...) to build them.
type Attr = slog.Attr

// An Event is one record of the causal stream: a completed span (Dur >
// 0 possible) or a point event (a retry, an injected fault, a
// quarantine decision). Events are plain data — safe to copy, marshal,
// and hold after the trace has moved on.
type Event struct {
	Time   time.Time      `json:"time"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span,omitempty"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Level  slog.Level     `json:"level"`
	Dur    time.Duration  `json:"dur_ns,omitempty"`
	Err    string         `json:"err,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// An EventSink receives every event of every trace routed through a
// Tracer. Implementations must be safe for concurrent use.
type EventSink interface {
	RecordEvent(Event)
}

// A Tracer mints trace IDs and fans events out to its sinks. It holds
// no metrics registry: spans carry their own (see StartOp), so causal
// attribution and metric accounting stay independently optional. A nil
// *Tracer is valid and inert.
type Tracer struct {
	sinks []EventSink
	base  uint64
	seq   atomic.Uint64
}

// NewTracer builds a tracer over the given sinks (nil sinks are
// skipped). Trace IDs are unique per process; call Seed for
// reproducible IDs in tests.
func NewTracer(sinks ...EventSink) *Tracer {
	t := &Tracer{base: uint64(time.Now().UnixNano())}
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
	return t
}

// Seed fixes the trace-ID sequence base so tests get deterministic IDs.
func (t *Tracer) Seed(base uint64) { t.base = base }

func (t *Tracer) record(ev Event) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.RecordEvent(ev)
	}
}

// newTrace allocates trace state for one operation tree.
func (t *Tracer) newTrace() *traceState {
	n := t.seq.Add(1)
	// splitmix-style spread so consecutive traces don't share prefixes.
	return &traceState{tracer: t, id: TraceID(t.base ^ (n * 0x9e3779b97f4a7c15))}
}

// traceState is the per-trace shared state: the ID and the span-ID
// allocator. It travels inside every SpanCtx of the trace.
type traceState struct {
	tracer *Tracer
	id     TraceID
	next   atomic.Uint32
}

// ctxKey carries the current *SpanCtx through a context.Context.
type ctxKey struct{}

// A SpanCtx is one node of a trace: it wraps a metrics Span (so ending
// it records the usual <name>.seconds/.calls/.xors metrics) and, when
// a trace is active, emits a completion Event carrying the span's
// typed attributes to the tracer's sinks. The zero-valued/inert form
// (no trace, no registry) makes every method a no-op, so call sites
// never guard. A SpanCtx is owned by one goroutine; use Emit from
// workers instead of sharing one.
type SpanCtx struct {
	ts     *traceState
	metric Span
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// StartOp begins a span named name as a child of ctx's current span.
// When ctx carries no trace, a new trace is started on tr — or, if tr
// is nil too, the span is causally inert but still records metrics
// into reg, through reg's span family for name. This is the one entry
// point the data-path operations use: top-level calls root a trace,
// nested calls chain onto it.
func StartOp(ctx context.Context, tr *Tracer, reg *Registry, name string, attrs ...Attr) (context.Context, *SpanCtx) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	var ts *traceState
	var parentID SpanID
	if parent != nil && parent.ts != nil {
		ts = parent.ts
		parentID = parent.id
	} else if tr != nil {
		ts = tr.newTrace()
	}
	s := &SpanCtx{
		ts:     ts,
		metric: reg.Family(name).Start(),
		parent: parentID,
		name:   name,
		attrs:  attrs,
	}
	if ts != nil {
		s.id = SpanID(ts.next.Add(1))
		s.start = time.Now()
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// TraceID returns the span's trace ID (zero when inert).
func (s *SpanCtx) TraceID() TraceID {
	if s == nil || s.ts == nil {
		return 0
	}
	return s.ts.id
}

// Attr appends typed attributes to the span; they are carried on its
// completion event.
func (s *SpanCtx) Attr(attrs ...Attr) *SpanCtx {
	if s != nil && s.ts != nil {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// Bytes sets the metric span's processed-byte count.
func (s *SpanCtx) Bytes(n int) *SpanCtx {
	if s != nil {
		s.metric.Bytes(n)
	}
	return s
}

// Units sets the metric span's work-unit count.
func (s *SpanCtx) Units(n int) *SpanCtx {
	if s != nil {
		s.metric.Units(n)
	}
	return s
}

// Ops accumulates element-operation counts into the metric span.
func (s *SpanCtx) Ops(o core.Ops) *SpanCtx {
	if s != nil {
		s.metric.Ops(o)
	}
	return s
}

// End finishes the span: the metric span records its metrics, and, if
// a trace is active, the completion event (name, duration, attributes,
// error) reaches every sink. Errors raise the event to slog.LevelError.
func (s *SpanCtx) End(err error) time.Duration {
	if s == nil {
		return 0
	}
	d := s.metric.End(err)
	if s.ts == nil {
		return d
	}
	dur := time.Since(s.start)
	ev := Event{
		Time:   time.Now(),
		Trace:  s.ts.id.String(),
		Span:   s.id.String(),
		Parent: s.parent.String(),
		Name:   s.name,
		Level:  slog.LevelInfo,
		Dur:    dur,
		Attrs:  attrMap(s.attrs),
	}
	if err != nil {
		ev.Level = slog.LevelError
		ev.Err = err.Error()
	}
	s.ts.tracer.record(ev)
	return dur
}

// Emit records a point event as a child of ctx's current span: it gets
// its own span ID (so sinks see it as a zero-duration child span) and
// the current span as parent. A context without an active trace drops
// the event — instrumentation stays unconditional.
func Emit(ctx context.Context, level slog.Level, name string, attrs ...Attr) {
	EmitErr(ctx, level, name, nil, attrs...)
}

// EmitErr is Emit carrying an error cause.
func EmitErr(ctx context.Context, level slog.Level, name string, err error, attrs ...Attr) {
	if ctx == nil {
		return
	}
	sc, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	if sc == nil || sc.ts == nil {
		return
	}
	ts := sc.ts
	ev := Event{
		Time:   time.Now(),
		Trace:  ts.id.String(),
		Span:   SpanID(ts.next.Add(1)).String(),
		Parent: sc.id.String(),
		Name:   name,
		Level:  level,
		Attrs:  attrMap(attrs),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	ts.tracer.record(ev)
}

// attrMap resolves a typed attribute list into the Event's plain-data
// form.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value.Resolve().Any()
	}
	return m
}
