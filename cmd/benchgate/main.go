// Command benchgate is the perf-regression gate for the core coding hot
// paths (see `make bench-gate`). It measures the gated workloads —
// Liberation encode, two-erasure decode, single-column correction, and
// the GF(2^8) Reed-Solomon encode and decodes — and
// compares exact XOR counts and calibrated timing against the checked-in
// baseline artifact. Any XOR-count increase fails; timing may drift up to
// the tolerance after the machines' raw copy throughputs cancel.
//
// Usage:
//
//	benchgate [-baseline artifacts/BENCH_core.json] [-write]
//
// -write regenerates the baseline from this machine instead of comparing.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/benchutil"
)

const (
	// tol is the allowed fractional ns/op growth after calibration; a
	// bench's own tol_ns_frac in the baseline overrides it.
	tol = 0.15
	// benchTime is the minimum measurement time per bench and round.
	benchTime = time.Second
)

func main() {
	var (
		baseline = flag.String("baseline", "artifacts/BENCH_core.json", "baseline report to gate against")
		write    = flag.Bool("write", false, "write the baseline from this run instead of comparing")
	)
	flag.Parse()

	cur, err := benchutil.RunCoreReport(benchTime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("calibration: %.0f MB/s raw copy (%s, %s)\n", cur.CalibMBPerSec, cur.GoVersion, cur.GOARCH)
	for _, b := range cur.Benches {
		fmt.Printf("%-44s %10.0f ns/op %9.1f MB/s %8d xors  %.2f xors/unit\n",
			b.Name, b.NsPerOp, b.MBPerSec, b.XORs, b.XORsPerUnit)
	}
	if *write {
		if err := benchutil.WriteCoreJSON(*baseline, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baseline written: %s\n", *baseline)
		return
	}

	base, err := benchutil.LoadCoreJSON(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v (run with -write to create the baseline)\n", err)
		os.Exit(1)
	}
	violations := benchutil.CompareCore(base, cur, tol)
	if len(violations) == 0 {
		fmt.Printf("bench-gate: PASS against %s (tol %.0f%%)\n", *baseline, tol*100)
		return
	}
	fmt.Fprintf(os.Stderr, "bench-gate: FAIL against %s (tol %.0f%%)\n", *baseline, tol*100)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	os.Exit(1)
}
