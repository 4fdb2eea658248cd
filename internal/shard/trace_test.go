package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// TestDecodeCausalTrace is the tracing acceptance scenario: a seeded
// chaos schedule (transient read faults on shard 0) plus persistent
// on-disk corruption of shard 1 in stripe 0 drive a degraded decode into
// a writer that cannot rewind, and the resulting trace must be complete
// — every injected fault, retry, health verdict, quarantine and rung
// choice is a child event of one trace, with typed attributes, in both
// a collecting sink and the JSON event log. The decode takes one
// attempt and quarantines shard 1. On version 5 the probe reads nothing;
// the stream finds the corrupt strip, names the shard and the stripe,
// and erases that strip for its stripe. On version 4 the probe reads
// every shard (the transient faults land there), finds shard 1's
// checksum wrong and erases it whole, with no stripe named.
func TestDecodeCausalTrace(t *testing.T) {
	for _, version := range []int{5, 4} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir, content, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
			v4 := version == 4
			if v4 {
				asVersion4(t, dir, m)
			}
			path := filepath.Join(dir, m.ShardName(1))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			// Shard 0: two seeded transient read faults, absorbed by the
			// retry layer — they must surface as faultstore.inject +
			// store.retry events, not as failures.
			faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 7, Rules: []faultstore.Rule{
				{Path: m.ShardName(0), Op: faultstore.OpRead, Kind: faultstore.Transient, Prob: 1, Count: 2},
			}})
			sink := &eventSink{}
			var logBuf bytes.Buffer
			tracer := obs.NewTracer(sink, obs.NewEventLog(&logBuf, slog.LevelInfo))
			tracer.Seed(42)
			opt := Options{
				Store: faulty, Registry: obs.NewRegistry(), Tracer: tracer,
				Retry: store.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Sleep: instantSleep},
			}
			var out bytes.Buffer
			rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), struct{ io.Writer }{&out}, opt)
			if err != nil {
				t.Fatalf("DecodeReport: %v", err)
			}
			if !bytes.Equal(out.Bytes(), content) {
				t.Fatal("degraded decode produced wrong bytes")
			}
			if rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != "[1]" {
				t.Fatalf("report = %+v, want shard 1 quarantined in one attempt", rep)
			}

			// The stripe is named when a strip fails its recorded sum, and
			// not when a version 4 shard fails its checksum.
			var stripe any = int64(0)
			erased := int64(0)
			if v4 {
				stripe, erased = nil, 1
			}
			events := sink.Events()
			count := checkTrace(t, events, &logBuf)
			for _, ev := range events {
				switch ev.Name {
				case "faultstore.inject":
					if ev.Attrs["seed"] != int64(7) || ev.Attrs["rule"] != int64(0) || ev.Attrs["op"] != "read" {
						t.Errorf("faultstore.inject attrs = %v, want seed=7 rule=0 op=read", ev.Attrs)
					}
				case "store.retry":
					if ev.Attrs["op"] != "read" || ev.Err == "" {
						t.Errorf("store.retry attrs = %v err=%q, want op=read and a cause", ev.Attrs, ev.Err)
					}
				case "shard.probe":
					if ev.Attrs["checksums"] != v4 {
						t.Errorf("shard.probe attrs = %v, want checksums=%v", ev.Attrs, v4)
					}
				case "shard.unhealthy", "shard.quarantine":
					if ev.Attrs["shard"] != int64(1) || ev.Attrs["state"] != "corrupt" || ev.Attrs["stripe"] != stripe {
						t.Errorf("%s attrs = %v, want shard=1 state=corrupt stripe=%v", ev.Name, ev.Attrs, stripe)
					}
				case "shard.rung":
					if ev.Attrs["rung"] != "erasure" || ev.Attrs["erased"] != erased {
						t.Errorf("shard.rung attrs = %v, want rung=erasure erased=%d", ev.Attrs, erased)
					}
				}
			}
			for name, want := range map[string]int{
				"shard.decode": 1, "shard.attempt": 1, "shard.probe": 1, "shard.unhealthy": 1,
				"shard.quarantine": 1, "shard.rung": 1, "faultstore.inject": 2, "store.retry": 2,
			} {
				if count[name] != want {
					t.Errorf("trace has %d %q events, want %d (have %v)", count[name], name, want, count)
				}
			}
		})
	}
}

// eventSink is the tests' collecting sink: every event of the traces
// it is attached to, in arrival order.
type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) RecordEvent(ev obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of the events recorded so far.
func (s *eventSink) Events() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.events)
}

// checkTrace checks that events, everything a sink collected from one
// decode, form one closed trace: one trace ID, every event's parent a
// span completed in it (only the shard.decode root has none), and the
// same events, trace-correlated, in the JSON event log. It returns the
// number of events of each name.
func checkTrace(t *testing.T, events []obs.Event, log *bytes.Buffer) map[string]int {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("the sink collected no events")
	}

	// One trace end to end.
	trace := events[0].Trace
	if trace == "" {
		t.Fatal("events carry no trace ID")
	}
	for _, ev := range events {
		if ev.Trace != trace {
			t.Fatalf("event %q in trace %q, want %q", ev.Name, ev.Trace, trace)
		}
	}

	// Causal closure: every event's parent is a span that completed in
	// the same trace, except the root (shard.decode), whose parent is
	// empty.
	spans := make(map[string]string) // span id -> name
	for _, ev := range events {
		spans[ev.Span] = ev.Name
	}
	count := make(map[string]int)
	for _, ev := range events {
		count[ev.Name]++
		if ev.Parent == "" {
			if ev.Name != "shard.decode" {
				t.Errorf("parentless event %q, only the root span may be", ev.Name)
			}
			continue
		}
		if _, ok := spans[ev.Parent]; !ok {
			t.Errorf("event %q has dangling parent span %q", ev.Name, ev.Parent)
		}
	}

	// The same events must be in the JSON event log, trace-correlated.
	logged := make(map[string]int)
	dec := json.NewDecoder(log)
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("event log is not JSON lines: %v", err)
		}
		if line["trace"] != trace {
			t.Errorf("log line %v in trace %v, want %v", line["msg"], line["trace"], trace)
		}
		logged[line["msg"].(string)]++
	}
	for name, n := range count {
		if logged[name] != n {
			t.Errorf("event log has %d %q lines, the sink %d", logged[name], name, n)
		}
	}
	return count
}

// TestRepairFastPassTrace pins how a repair of a version 5 set reads in
// its trace when a survivor has a strip that fails its sum beside a lost
// shard. Neither attempt's probe reads checksums. The first attempt's
// stream names the survivor and its stripe and quarantines it, and the
// attempt ends in error to restart with the survivor among its targets;
// the second streams it again, finds the same strip, and commits. The
// quarantine is reported once.
func TestRepairFastPassTrace(t *testing.T) {
	dir, _, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
	if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.ShardName(2))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[9] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	sink := &eventSink{}
	tracer := obs.NewTracer(sink)
	tracer.Seed(45)
	repaired, err := RepairOpts(filepath.Join(dir, ManifestName(m.FileName)), Options{Tracer: tracer})
	if err != nil {
		t.Fatalf("RepairOpts: %v", err)
	}
	if fmt.Sprint(repaired) != "[1 2]" {
		t.Fatalf("repaired %v, want [1 2]", repaired)
	}

	// The recovery's events in the order they reached the sink. Spans
	// land on End, so each probe follows the shard.unhealthy verdicts it
	// emitted, and each attempt follows everything it did.
	var got []string
	for _, ev := range sink.Events() {
		switch ev.Name {
		case "shard.attempt":
			got = append(got, fmt.Sprintf("attempt %v failed=%v", ev.Attrs["attempt"], ev.Err != ""))
		case "shard.probe":
			got = append(got, fmt.Sprintf("probe checksums=%v", ev.Attrs["checksums"]))
		case "shard.unhealthy":
			got = append(got, fmt.Sprintf("unhealthy %v %v stripe=%v", ev.Attrs["shard"], ev.Attrs["state"], ev.Attrs["stripe"]))
		case "shard.quarantine":
			got = append(got, fmt.Sprintf("quarantine %v", ev.Attrs["shard"]))
		case "shard.rung":
			got = append(got, fmt.Sprintf("rung %v erased=%v", ev.Attrs["rung"], ev.Attrs["erased"]))
		}
	}
	want := []string{
		"unhealthy 1 missing stripe=<nil>", "probe checksums=false", "rung erasure erased=1",
		"unhealthy 2 corrupt stripe=0", "quarantine 2", "attempt 1 failed=true",
		"unhealthy 1 missing stripe=<nil>", "probe checksums=false", "rung erasure erased=1",
		"unhealthy 2 corrupt stripe=0", "attempt 2 failed=false",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("repair trace:\n got  %q\n want %q", got, want)
	}
}

// TestUnrecoverableTrace pins the causal record of a failed recovery:
// with three shards lost, the decode's trace holds a shard.unhealthy
// event for each of them and the root span's failing completion.
func TestUnrecoverableTrace(t *testing.T) {
	dir, _, m := encodeTestFile(t, 6000, 4, 0, 64)
	for _, i := range []int{0, 2, 4} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}

	sink := &eventSink{}
	tracer := obs.NewTracer(sink)
	tracer.Seed(43)
	var out bytes.Buffer
	_, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out,
		Options{Tracer: tracer})
	var ue *UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrecoverableError", err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("the failed decode traced no events")
	}
	var unhealthy int
	var rootEnd bool
	for _, ev := range events {
		if ev.Name == "shard.unhealthy" {
			unhealthy++
		}
		if ev.Name == "shard.decode" && ev.Err != "" {
			rootEnd = true
		}
	}
	if unhealthy != 3 {
		t.Errorf("trace records %d shard.unhealthy events, want 3", unhealthy)
	}
	if !rootEnd {
		t.Error("trace lacks the root span's failing completion event")
	}
}

// TestVerifyDegradedTrace checks that Verify roots its own trace, whose
// last event is shard.verify's completion carrying the degraded error.
func TestVerifyDegradedTrace(t *testing.T) {
	dir, _, m := encodeTestFile(t, 6000, 4, 0, 64)
	if err := os.Remove(filepath.Join(dir, m.ShardName(2))); err != nil {
		t.Fatal(err)
	}
	sink := &eventSink{}
	tracer := obs.NewTracer(sink)
	tracer.Seed(44)
	err := Verify(filepath.Join(dir, ManifestName(m.FileName)), Options{Tracer: tracer})
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DegradedError", err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("the degraded verify traced no events")
	}
	last := events[len(events)-1]
	if last.Name != "shard.verify" || last.Err == "" {
		t.Errorf("trace ends with %q (err %q), want the shard.verify completion", last.Name, last.Err)
	}
}
