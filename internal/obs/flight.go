package obs

import "sync"

// DefaultFlightSize is the ring capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightSize = 256

// A FlightRecorder keeps the last N events in a fixed-size in-memory
// ring — the storage equivalent of an aircraft's flight recorder. When
// a recovery fails, the tail of the ring is the causal record of what
// the operation tried (every retry, quarantine, and erased strip),
// attached to the typed error, so a post-mortem needs no live process
// and no external log pipeline.
//
// Writes are one short critical section (no allocation); Snapshot copies
// under the same lock, so a reader can never observe a torn record.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	n     int    // records currently held
	next  int    // ring write cursor
	total uint64 // lifetime records, including overwritten ones
}

// NewFlightRecorder returns a recorder holding the last size events
// (DefaultFlightSize if size <= 0).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// RecordEvent implements EventSink.
func (r *FlightRecorder) RecordEvent(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the lifetime record count (including overwritten
// events).
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns a consistent oldest-first copy of the ring's
// contents. Safe to call concurrently with writers.
func (r *FlightRecorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Tail returns the recorder's events for one trace (every trace when
// trace is zero), oldest first, keeping only the last max when max > 0.
func (r *FlightRecorder) Tail(trace TraceID, max int) []Event {
	events := r.Snapshot()
	if trace != 0 {
		want := trace.String()
		kept := events[:0]
		for _, ev := range events {
			if ev.Trace == want {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if max > 0 && len(events) > max {
		events = events[len(events)-max:]
	}
	return events
}
