package obs

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"testing"
)

// collector is a test sink: it keeps every event, in arrival order.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) RecordEvent(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// TestSpanCtxParentage checks the causal chain: root → child spans →
// point events all share one trace ID and link parent to child.
func TestSpanCtxParentage(t *testing.T) {
	rec := &collector{}
	tr := NewTracer(rec)
	tr.Seed(0)

	ctx, root := StartOp(context.Background(), tr, nil, "op.root", slog.String("kind", "test"))
	if root.TraceID() == 0 {
		t.Fatal("root span has no trace ID")
	}
	cctx, child := StartOp(ctx, nil, nil, "op.child")
	Emit(cctx, slog.LevelWarn, "op.point", slog.Int("shard", 3))
	child.Attr(slog.Int("stripe", 7)).End(nil)
	root.End(errors.New("boom"))

	events := rec.events
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	point, childEv, rootEv := events[0], events[1], events[2]
	want := root.TraceID().String()
	for i, ev := range events {
		if ev.Trace != want {
			t.Errorf("event %d trace %q, want %q", i, ev.Trace, want)
		}
	}
	if point.Name != "op.point" || point.Parent != childEv.Span {
		t.Errorf("point event %+v not parented to child span %q", point, childEv.Span)
	}
	if childEv.Parent != rootEv.Span {
		t.Errorf("child parent %q, want root span %q", childEv.Parent, rootEv.Span)
	}
	if rootEv.Parent != "" {
		t.Errorf("root parent %q, want empty", rootEv.Parent)
	}
	if rootEv.Err != "boom" || rootEv.Level != slog.LevelError {
		t.Errorf("root error not recorded: %+v", rootEv)
	}
	if childEv.Attrs["stripe"] != int64(7) {
		t.Errorf("child attrs = %v, want stripe=7", childEv.Attrs)
	}
	if point.Attrs["shard"] != int64(3) {
		t.Errorf("point attrs = %v, want shard=3", point.Attrs)
	}
	if childEv.Dur <= 0 {
		t.Errorf("child span has no duration: %+v", childEv)
	}
}

// TestStartOpRootsOnlyWithoutTrace checks that StartOp chains onto an
// existing trace rather than starting a second one, and that distinct
// top-level operations get distinct trace IDs.
func TestStartOpRootsOnlyWithoutTrace(t *testing.T) {
	tr := NewTracer(&collector{})
	tr.Seed(0)
	ctx1, sp1 := StartOp(context.Background(), tr, nil, "a")
	_, sp2 := StartOp(ctx1, tr, nil, "b")
	if sp1.TraceID() != sp2.TraceID() {
		t.Errorf("nested StartOp started a new trace: %v vs %v", sp1.TraceID(), sp2.TraceID())
	}
	_, sp3 := StartOp(context.Background(), tr, nil, "c")
	if sp3.TraceID() == sp1.TraceID() {
		t.Error("independent operations share a trace ID")
	}
}

// TestInertSpans checks the no-tracer/no-registry path is a usable
// no-op: metrics still record when only a registry is present, and
// nothing panics when neither is.
func TestInertSpans(t *testing.T) {
	// Neither tracer nor registry.
	ctx, sp := StartOp(context.Background(), nil, nil, "quiet")
	Emit(ctx, slog.LevelInfo, "dropped")
	if sp.TraceID() != 0 {
		t.Error("inert span has a trace ID")
	}
	sp.Attr(slog.Int("x", 1)).Bytes(10).Units(2).End(nil)

	// Registry only: the metric families must land.
	reg := NewRegistry()
	_, sp2 := StartOp(context.Background(), nil, reg, "metric.only")
	sp2.Bytes(100).End(nil)
	if got := reg.Counter("metric.only.calls").Value(); got != 1 {
		t.Errorf("metric.only.calls = %d, want 1", got)
	}

	// Emit on a nil context must not panic.
	Emit(nil, slog.LevelInfo, "nothing") //nolint:staticcheck // deliberate nil
}
