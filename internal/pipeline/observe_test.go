package pipeline

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/liberation"
	"repro/internal/obs"
)

// TestCancellationStopsWork proves the error-aggregation fix: after the
// first worker errors, no further stripe begins processing. The erroring
// call signals the in-flight calls (which may legitimately finish) and
// every later stripe must be skipped, so with 4 workers and 400 stripes
// the call count stays within a handful of the pool size instead of
// running the whole batch.
func TestCancellationStopsWork(t *testing.T) {
	const n = 400
	const workers = 4
	stripes := make([]*core.Stripe, n)
	for i := range stripes {
		stripes[i] = core.NewStripe(3, 3, 8)
	}

	var calls atomic.Int64
	errSeen := make(chan struct{})
	boom := errors.New("boom")
	rep, err := forEach("pipeline.encode", stripes, 1, Config{Workers: workers}, nil,
		func(s *core.Stripe, o *core.Ops) error {
			calls.Add(1)
			if s == stripes[0] {
				close(errSeen)
				return boom
			}
			<-errSeen // hold in-flight calls until the error is raised
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// At error time at most workers-1 calls are in flight, and each
	// worker may begin one more before observing the stop flag.
	if got := calls.Load(); got > 2*workers {
		t.Errorf("%d stripes entered processing after an error (pool=%d); cancellation is broken",
			got, workers)
	}
	if rep.Stripes >= n/2 {
		t.Errorf("report claims %d processed stripes out of %d despite early error", rep.Stripes, n)
	}
}

// TestReportAccounting checks the per-worker counts, totals, and the
// parallel/serial agreement of the Report-returning API.
func TestReportAccounting(t *testing.T) {
	code, _ := liberation.New(5, 5)
	rng := rand.New(rand.NewSource(11))
	const n = 53
	stripes := make([]*core.Stripe, n)
	for i := range stripes {
		s := core.NewStripe(5, 5, 64)
		s.FillRandom(rng)
		stripes[i] = s
	}
	var ops core.Ops
	rep, err := EncodeAllReport(code, stripes, &ops, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 4 || len(rep.PerWorker) != 4 {
		t.Fatalf("report workers = %d / %d entries, want 4", rep.Workers, len(rep.PerWorker))
	}
	sum := 0
	for _, c := range rep.PerWorker {
		sum += c
	}
	if sum != n || rep.Stripes != n {
		t.Errorf("per-worker sum %d, Stripes %d, want %d", sum, rep.Stripes, n)
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if want := uint64(n * code.EncodeXORs()); ops.XORs != want {
		t.Errorf("ops.XORs = %d, want %d", ops.XORs, want)
	}

	// Rebuild path: report plus correctness.
	refs := make([]*core.Stripe, n)
	for i, s := range stripes {
		refs[i] = s.Clone()
		s.ZeroStrip(0)
		s.ZeroStrip(2)
	}
	rep, err = DecodeAllReport(code, stripes, []int{0, 2}, nil, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stripes != n {
		t.Errorf("decode report processed %d, want %d", rep.Stripes, n)
	}
	for i := range stripes {
		if !stripes[i].Equal(refs[i]) {
			t.Fatalf("stripe %d not rebuilt", i)
		}
	}

	// Serial path reports through the same structure.
	rep, err = EncodeAllReport(code, stripes, nil, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 1 || rep.PerWorker[0] != n {
		t.Errorf("serial report %+v, want all %d stripes on worker 0", rep, n)
	}
}

// TestPipelineObsSpans checks the registry wiring: bulk calls produce
// pipeline.encode spans whose XOR counters match the core.Ops totals,
// and Snapshot() can be read concurrently with running pools (this is
// the -race acceptance test for the pipeline package).
func TestPipelineObsSpans(t *testing.T) {
	code, _ := liberation.New(4, 5)
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(5))
	const n = 40
	stripes := make([]*core.Stripe, n)
	for i := range stripes {
		s := core.NewStripe(4, 5, 32)
		s.FillRandom(rng)
		stripes[i] = s
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = reg.Snapshot()
				}
			}
		}()
	}

	var ops core.Ops
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := EncodeAllReport(code, stripes, &ops, Config{Workers: 4, Registry: reg}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	snap := reg.Snapshot()
	st, ok := snap.Spans["pipeline.encode"]
	if !ok {
		t.Fatal("no pipeline.encode span recorded")
	}
	if st.Calls != rounds {
		t.Errorf("span calls = %d, want %d", st.Calls, rounds)
	}
	if st.XORs != ops.XORs {
		t.Errorf("span XORs %d != ops %d", st.XORs, ops.XORs)
	}
	// Units are parity elements (M×W per stripe), so xors/unit is the
	// code's per-element encode cost: exactly k-1 for liberation.
	if want := uint64(rounds * n * code.M() * code.W()); st.Units != want {
		t.Errorf("span units %d, want %d parity elements", st.Units, want)
	}
	if st.XORsPerUnit != float64(code.K()-1) {
		t.Errorf("span xors/unit = %v, want k-1 = %d", st.XORsPerUnit, code.K()-1)
	}
	if _, ok := snap.Histograms["pipeline.encode.queue_wait.seconds"]; !ok {
		t.Error("queue-wait histogram missing")
	}
	if _, ok := snap.Histograms["pipeline.encode.shutdown_wait.seconds"]; !ok {
		t.Error("shutdown-wait histogram missing")
	}
	if h, ok := snap.Histograms["pipeline.worker.stripes"]; !ok || h.Count == 0 {
		t.Error("per-worker stripes histogram missing or empty")
	}
}
