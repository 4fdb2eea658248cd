package obs

import (
	"context"
	"io"
	"log/slog"
	"sort"
)

// An EventLog is the structured-log sink: every event at or above its
// level becomes one log/slog record — JSON lines by default — carrying
// the trace/span/parent correlation IDs, the duration, the error, and
// the event's typed attributes. Attribute order is sorted, so the output
// is byte-stable for equal events and greppable by key.
//
// slog's JSONHandler serializes concurrent Handle calls safely, so one
// EventLog can sit behind any number of traces.
type EventLog struct {
	h   slog.Handler
	min slog.Level
}

// NewEventLog returns an event log writing JSON lines to w, dropping
// events below min.
func NewEventLog(w io.Writer, min slog.Level) *EventLog {
	return &EventLog{
		h:   slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min}),
		min: min,
	}
}

// RecordEvent implements EventSink.
func (l *EventLog) RecordEvent(ev Event) {
	if l == nil || ev.Level < l.min {
		return
	}
	r := slog.NewRecord(ev.Time, ev.Level, ev.Name, 0)
	r.AddAttrs(slog.String("trace", ev.Trace))
	if ev.Span != "" {
		r.AddAttrs(slog.String("span", ev.Span))
	}
	if ev.Parent != "" {
		r.AddAttrs(slog.String("parent", ev.Parent))
	}
	if ev.Dur > 0 {
		r.AddAttrs(slog.Duration("dur", ev.Dur))
	}
	if ev.Err != "" {
		r.AddAttrs(slog.String("err", ev.Err))
	}
	if len(ev.Attrs) > 0 {
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r.AddAttrs(slog.Any(k, ev.Attrs[k]))
		}
	}
	l.h.Handle(context.Background(), r)
}
