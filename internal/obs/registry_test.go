package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("widgets") != c {
		t.Error("Counter must return the same instance per name")
	}
	g := r.Gauge("depth")
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2.0 {
		t.Errorf("gauge = %g, want 2", got)
	}
	// Nil-safe helpers.
	var nilReg *Registry
	nilReg.Count("x", 1)
	nilReg.SetGauge("y", 1)
	nilReg.Observe("z", LatencyBuckets, 1)
	if nilReg.Counter("x") != nil {
		t.Error("nil registry must hand out nil counters")
	}
	snap := nilReg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	// 100 observations uniform over (0, 4]: quantiles should land close to
	// q*4 under linear interpolation.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if math.Abs(s.Sum-202.0) > 1e-9 {
		t.Errorf("sum = %g, want 202", s.Sum)
	}
	if s.Min != 0.04 || s.Max != 4.0 {
		t.Errorf("min/max = %g/%g, want 0.04/4", s.Min, s.Max)
	}
	for q, want := range map[float64]float64{0.5: 2.0, 0.9: 3.6, 0.99: 3.96} {
		if got := s.Quantile(q); math.Abs(got-want) > 0.25 {
			t.Errorf("q%.2f = %g, want ~%g", q, got, want)
		}
	}
	// Overflow bucket: estimates stay within the observed range.
	h.Observe(100)
	s = r.Snapshot().Histograms["lat"]
	if got := s.Quantile(1.0); got != 100 {
		t.Errorf("q1.0 = %g, want the max (100)", got)
	}
	if s.P99 > 100 || s.P50 < s.Min {
		t.Errorf("percentiles escaped the observed range: %+v", s)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", LatencyBuckets)
	s := r.Snapshot().Histograms["e"]
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P50 != 0 {
		t.Errorf("empty histogram snapshot not zeroed: %+v", s)
	}
	h.Observe(0.003)
	s = r.Snapshot().Histograms["e"]
	if s.Count != 1 || s.Min != 0.003 || s.Max != 0.003 {
		t.Errorf("single observation: %+v", s)
	}
	if got := s.Quantile(0.5); math.Abs(got-0.003) > 1e-9 {
		t.Errorf("q0.5 of single obs = %g, want 0.003", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Count("a.calls", 3)
	r.Count("a.xors", 30)
	r.SetGauge("g", 0.5)
	r.Histogram("a.seconds", LatencyBuckets).Observe(0.001)
	buf, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.xors"] != 30 || back.Gauges["g"] != 0.5 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if sp, ok := back.Spans["a"]; !ok || sp.Calls != 3 || sp.XORs != 30 {
		t.Errorf("span family not reassembled: %+v", back.Spans)
	}
}

// TestConcurrentRegistry hammers every metric type from many goroutines
// while other goroutines take snapshots — the scenario the registry
// exists for, and the test `go test -race ./internal/obs` leans on.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers run until writers finish.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := r.Snapshot()
					if s.Counters["hits"] > writers*perWriter {
						t.Error("counter overshot")
						return
					}
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("hits").Inc()
				r.Gauge("level").Set(float64(i))
				r.Histogram("lat", LatencyBuckets).Observe(float64(i%10) * 1e-5)
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["hits"]; got != writers*perWriter {
		t.Errorf("hits = %d, want %d", got, writers*perWriter)
	}
	if got := s.Histograms["lat"].Count; got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

// TestHistogramFirstObservationRace races the first Observe of fresh
// histograms against a reader that snapshots until it counts the
// observation. The snapshot that counts it must also see its min and
// max, never the empty histogram's ±Inf sentinels, which JSON cannot
// encode.
func TestHistogramFirstObservationRace(t *testing.T) {
	const rounds = 20000
	for round := 0; round < rounds; round++ {
		h := newHistogram(LatencyBuckets)
		seen := make(chan HistogramSnapshot)
		go func() {
			for {
				if s := h.snapshot(); s.Count > 0 {
					seen <- s
					return
				}
			}
		}()
		h.Observe(1e-3)
		s := <-seen
		if s.Min != 1e-3 || s.Max != 1e-3 {
			t.Fatalf("round %d: snapshot counts %d observations with min %g, max %g; want 0.001 for both",
				round, s.Count, s.Min, s.Max)
		}
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
