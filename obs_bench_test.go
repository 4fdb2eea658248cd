// Observability artifact hook for the bench harness: setting
// BENCH_OBS_JSON=<path> makes the test binary emit the metric snapshot
// of a deterministic instrumented workload after the run (see
// `make bench-obs`), so XOR-per-bit rates and span accounting can be
// diffed across commits alongside the throughput numbers.
package repro_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/benchutil"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_OBS_JSON"); path != "" && code == 0 {
		rep, err := benchutil.RunObservedWorkload(8, 11, 1024, 64)
		if err == nil {
			err = benchutil.WriteObsJSON(path, rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "BENCH_OBS_JSON:", err)
			code = 1
		} else {
			fmt.Fprintln(os.Stderr, "wrote observability snapshot to", path)
		}
	}
	os.Exit(code)
}

// TestObservedWorkloadDeterministic pins the artifact's op accounting:
// the encode span must show exactly 2p(k-1) XORs per stripe (k-1 per
// parity element), whatever machine produced it.
func TestObservedWorkloadDeterministic(t *testing.T) {
	const k, p, stripes = 5, 5, 8
	rep, err := benchutil.RunObservedWorkload(k, p, 64, stripes)
	if err != nil {
		t.Fatal(err)
	}
	enc, ok := rep.Snapshot.Spans["liberation.encode"]
	if !ok {
		t.Fatal("no encode span in report")
	}
	if want := uint64(stripes * 2 * p * (k - 1)); enc.XORs != want {
		t.Errorf("encode XORs = %d, want %d", enc.XORs, want)
	}
	if enc.XORsPerUnit != float64(k-1) {
		t.Errorf("encode XORs/unit = %v, want %d", enc.XORsPerUnit, k-1)
	}
	if _, ok := rep.Snapshot.Spans["liberation.decode"]; !ok {
		t.Error("no liberation.decode span in report")
	}
}
