package obs

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSpanRecordsEverything(t *testing.T) {
	r := NewRegistry()
	ops := core.Ops{XORs: 40, Copies: 10, Zeros: 2}
	sp := r.Family("encode").Start()
	if d := sp.Bytes(4096).Units(10).Ops(ops).End(nil); d <= 0 {
		t.Error("span duration must be positive")
	}
	s := r.Snapshot()
	st, ok := s.Spans["encode"]
	if !ok {
		t.Fatalf("span family missing from snapshot: %+v", s.Counters)
	}
	if st.Calls != 1 || st.Errors != 0 {
		t.Errorf("calls/errors = %d/%d", st.Calls, st.Errors)
	}
	if st.Bytes != 4096 || st.Units != 10 {
		t.Errorf("bytes/units = %d/%d", st.Bytes, st.Units)
	}
	if st.XORs != 40 || st.Copies != 10 || st.Zeros != 2 {
		t.Errorf("ops propagated wrong: %+v", st)
	}
	if st.XORsPerUnit != 4.0 {
		t.Errorf("xors/unit = %g, want 4", st.XORsPerUnit)
	}
	if st.Latency.Count != 1 || st.Latency.Sum <= 0 {
		t.Errorf("latency histogram: %+v", st.Latency)
	}
	if st.BytesPerSec <= 0 {
		t.Errorf("bytes/sec = %g, want > 0", st.BytesPerSec)
	}
}

func TestSpanErrorCounter(t *testing.T) {
	r := NewRegistry()
	for _, err := range []error{errors.New("boom"), nil} {
		sp := r.Family("op").Start()
		sp.End(err)
	}
	st := r.Snapshot().Spans["op"]
	if st.Calls != 2 || st.Errors != 1 {
		t.Errorf("calls/errors = %d/%d, want 2/1", st.Calls, st.Errors)
	}
}

func TestSpanNilRegistryNoop(t *testing.T) {
	var r *Registry
	sp := r.Family("x").Start()
	if d := sp.Bytes(1).Units(1).Ops(core.Ops{XORs: 1}).End(nil); d != 0 {
		t.Error("nil-registry span must report zero duration")
	}
}

// TestSpanOpsMatchExactly runs a deterministic accumulation and asserts
// the snapshot counters equal the core.Ops totals bit for bit — the
// contract the instrumented coding paths rely on.
func TestSpanOpsMatchExactly(t *testing.T) {
	r := NewRegistry()
	var total core.Ops
	for i := 1; i <= 7; i++ {
		o := core.Ops{XORs: uint64(i * 3), Copies: uint64(i), Zeros: uint64(i % 2)}
		total.Add(o)
		sp := r.Family("work").Start()
		sp.Ops(o).Units(i).End(nil)
	}
	st := r.Snapshot().Spans["work"]
	if st.XORs != total.XORs || st.Copies != total.Copies || st.Zeros != total.Zeros {
		t.Errorf("snapshot %+v does not match ops %+v", st, total)
	}
	if st.Units != 28 {
		t.Errorf("units = %d, want 28", st.Units)
	}
}

// TestSpanMetricsAppearOnFirstRecord: a family creates each metric on its
// first non-zero record. A resolved family that never ran has no metrics,
// a span that never fails has no .errors counter, and one with no XORs
// has no .xors.
func TestSpanMetricsAppearOnFirstRecord(t *testing.T) {
	r := NewRegistry()
	f := r.Family("op")
	if r.Family("op") != f {
		t.Fatal("Family must return the same handle per name")
	}
	r.LazyCounter("never.added")
	r.LazyHistogram("never.observed", LatencyBuckets)
	if s := r.Snapshot(); len(s.Counters)+len(s.Histograms) != 0 {
		t.Fatalf("handles created metrics before any record: %+v", s)
	}
	sp := f.Start()
	sp.Bytes(8).Ops(core.Ops{Copies: 2}).End(nil)
	s := r.Snapshot()
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), "op.bytes op.calls op.copies op.seconds"; got != want {
		t.Errorf("metrics %q, want %q", got, want)
	}
}

// TestSpanHotPathAllocs: once a family's metrics exist, recording a
// span, its counts given by Ops or counted through Count, allocates
// nothing, and neither do the lazy counter and histogram handles.
func TestSpanHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	f := r.Family("hot")
	c := r.LazyCounter("hot.events")
	h := r.LazyHistogram("hot.wait.seconds", LatencyBuckets)
	var ops core.Ops
	fail := errors.New("fail")
	record := func() {
		sp := f.Start()
		sp.Bytes(64).Units(2).Ops(core.Ops{XORs: 5, Copies: 1, Zeros: 1}).End(fail)
		sp = f.Start()
		sp.Count(&ops).XORs += 3
		sp.Bytes(64).EndInto(&ops, nil)
		c.Add(1)
		h.Observe(1e-4)
	}
	record() // create the metrics
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Errorf("span hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestSpanFamilyConcurrentRecords: goroutines resolve one family on a
// fresh registry at once and record on it, so every metric is created
// by a race. The totals are exact and each name has one metric: the
// racing resolutions end on the same registry metric.
func TestSpanFamilyConcurrentRecords(t *testing.T) {
	const goroutines, spans = 8, 500
	r := NewRegistry()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f := r.Family("race")
			events := r.LazyCounter("race.events")
			var local core.Ops
			for i := 0; i < spans; i++ {
				var err error
				if i%5 == 0 {
					err = errors.New("boom")
				}
				sp := f.Start()
				sp.Bytes(10).Units(2).Ops(core.Ops{XORs: 3, Copies: 1, Zeros: 1}).End(err)
				sp = f.Start()
				sp.Count(&local).XORs++
				sp.EndInto(&local, nil)
				events.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	const n = goroutines * spans
	st := r.Snapshot().Spans["race"]
	if st.Calls != 2*n || st.Errors != n/5 || st.Bytes != 10*n || st.Units != 2*n ||
		st.XORs != 4*n || st.Copies != n || st.Zeros != n || st.Latency.Count != 2*n {
		t.Errorf("span totals %+v, want calls %d errors %d bytes %d units %d xors %d copies/zeros %d",
			st, 2*n, n/5, 10*n, 2*n, 4*n, n)
	}
	if got := r.Counter("race.events").Value(); got != n {
		t.Errorf("race.events = %d, want %d", got, n)
	}
	if len(r.counters) != 8 || len(r.hists) != 1 {
		t.Errorf("%d counters and %d histograms, want 8 and 1 (one metric per name)", len(r.counters), len(r.hists))
	}
}

// BenchmarkSpan records one span of a resolved family.
func BenchmarkSpan(b *testing.B) {
	f := NewRegistry().Family("bench")
	ops := core.Ops{XORs: 24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := f.Start()
		sp.Bytes(4096).Units(3).Ops(ops).End(nil)
	}
}

// BenchmarkSpanClock prices a span's two clock reads: a wall-clock start
// with time.Now against a monotonic offset from a fixed epoch, which is
// what spans use.
func BenchmarkSpanClock(b *testing.B) {
	var sink time.Duration
	b.Run("now+since", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			sink += time.Since(t0)
		}
	})
	b.Run("monotonic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t0 := time.Since(epoch)
			sink += time.Since(epoch) - t0
		}
	})
	_ = sink
}
