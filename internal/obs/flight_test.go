package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderRing checks wrap-around ordering and the lifetime
// total.
func TestFlightRecorderRing(t *testing.T) {
	rec := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		rec.RecordEvent(Event{Name: fmt.Sprintf("ev-%d", i)})
	}
	events := rec.Snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(events))
	}
	for i, ev := range events {
		if want := fmt.Sprintf("ev-%d", 6+i); ev.Name != want {
			t.Errorf("event %d = %q, want %q (oldest-first tail)", i, ev.Name, want)
		}
	}
	if rec.Total() != 10 {
		t.Errorf("total = %d, want 10", rec.Total())
	}
}

// TestFlightTailByTrace filters to one trace and bounds the length.
func TestFlightTailByTrace(t *testing.T) {
	rec := NewFlightRecorder(16)
	for i := 0; i < 6; i++ {
		rec.RecordEvent(Event{Name: fmt.Sprintf("a-%d", i), Trace: TraceID(0xaa).String()})
		rec.RecordEvent(Event{Name: fmt.Sprintf("b-%d", i), Trace: TraceID(0xbb).String()})
	}
	tail := rec.Tail(TraceID(0xaa), 2)
	if len(tail) != 2 || tail[0].Name != "a-4" || tail[1].Name != "a-5" {
		t.Errorf("tail = %+v, want [a-4 a-5]", tail)
	}
	if all := rec.Tail(0, 0); len(all) != 12 {
		t.Errorf("unfiltered tail holds %d events, want 12", len(all))
	}
}

// TestFlightRecorderConcurrent is the tear-safety test: many writer
// goroutines stream internally-consistent events while readers snapshot
// continuously. Under -race this proves the ring never hands out a
// half-written record; the consistency check proves no record is
// assembled from two writes.
func TestFlightRecorderConcurrent(t *testing.T) {
	rec := NewFlightRecorder(64)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: snapshot continuously, checking every record's internal
	// consistency (all four correlated fields derive from one (w, i)).
	readerErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range rec.Snapshot() {
					if ev.Name == "" {
						continue
					}
					var w, i int
					if _, err := fmt.Sscanf(ev.Name, "ev-%d-%d", &w, &i); err != nil {
						select {
						case readerErr <- fmt.Errorf("unparsable record %+v", ev):
						default:
						}
						return
					}
					wantTrace := TraceID(uint64(w*1000000 + i)).String()
					wantSpan := SpanID(uint32(i + 1)).String()
					if ev.Trace != wantTrace || ev.Span != wantSpan ||
						ev.Attrs["w"] != int64(w) || ev.Attrs["i"] != int64(i) {
						select {
						case readerErr <- fmt.Errorf("torn record: %+v (want w=%d i=%d trace=%s span=%s)",
							ev, w, i, wantTrace, wantSpan):
						default:
						}
						return
					}
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec.RecordEvent(Event{
					Time:  time.Now(),
					Trace: TraceID(uint64(w*1000000 + i)).String(),
					Span:  SpanID(uint32(i + 1)).String(),
					Name:  fmt.Sprintf("ev-%d-%d", w, i),
					Attrs: map[string]any{"w": int64(w), "i": int64(i)},
				})
			}
		}(w)
	}

	// Let the writers run against live readers, then stop the readers
	// and wait for everyone.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	if rec.Total() != writers*perWriter {
		t.Errorf("total = %d, want %d", rec.Total(), writers*perWriter)
	}
}

// TestFlightTailConcurrentWrap runs Tail readers against writers
// hammering a ring small enough to wrap continuously. Under -race this
// pins Tail's locking; the assertions pin its contract mid-wrap: a
// trace-filtered tail only ever holds that trace's events, in oldest-
// first order with per-trace sequence numbers strictly increasing, and
// the max bound is respected.
func TestFlightTailConcurrentWrap(t *testing.T) {
	rec := NewFlightRecorder(8) // tiny ring: every writer pass wraps it
	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	readerErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trace := TraceID(uint64(r + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tail := rec.Tail(trace, 3)
				if len(tail) > 3 {
					readerErr <- fmt.Errorf("Tail(max=3) returned %d events", len(tail))
					return
				}
				lastSeq := -1
				for _, ev := range tail {
					if ev.Trace != trace.String() {
						readerErr <- fmt.Errorf("Tail(%s) leaked event from trace %s", trace, ev.Trace)
						return
					}
					var w, i int
					if _, err := fmt.Sscanf(ev.Name, "ev-%d-%d", &w, &i); err != nil {
						readerErr <- fmt.Errorf("torn record in tail: %+v", ev)
						return
					}
					if i <= lastSeq {
						readerErr <- fmt.Errorf("tail out of order: seq %d after %d", i, lastSeq)
						return
					}
					lastSeq = i
				}
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec.RecordEvent(Event{
					Trace: TraceID(uint64(w + 1)).String(),
					Name:  fmt.Sprintf("ev-%d-%d", w+1, i),
				})
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	if rec.Total() != writers*perWriter {
		t.Errorf("total = %d, want %d", rec.Total(), writers*perWriter)
	}
	// Post-wrap steady state: the ring holds exactly its size, and an
	// unbounded unfiltered Tail matches Snapshot.
	if got := len(rec.Tail(0, 0)); got != 8 {
		t.Errorf("final unfiltered tail holds %d events, want the ring size 8", got)
	}
}
