// Command benchgate is the perf-regression gate for the core coding hot
// paths (see `make bench-gate`). It measures the gated workloads —
// Liberation encode, two-erasure decode, single-column correction, and
// the GF(2^8) Reed-Solomon encode and decodes — and
// compares exact XOR counts and calibrated timing against the checked-in
// baseline artifact. Any XOR-count increase fails; timing may drift up to
// the tolerance after the machines' raw XOR-kernel throughputs cancel.
//
// Usage:
//
//	benchgate [-baseline artifacts/BENCH_core.json] [-tol 0.15]
//	          [-benchtime 1s] [-out current.json] [-write] [-only substr]
//
// -write regenerates the baseline from this machine instead of comparing;
// -out additionally saves the current report (for CI artifacts); -only
// gates just the benches whose name contains the substring (see `make
// bench-correct`) — it never filters a -write. The tolerance default can
// be overridden with the BENCH_GATE_TOL environment variable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchutil"
)

func filterBenches(benches []benchutil.CoreBench, substr string) []benchutil.CoreBench {
	var kept []benchutil.CoreBench
	for _, b := range benches {
		if strings.Contains(b.Name, substr) {
			kept = append(kept, b)
		}
	}
	return kept
}

func defaultTol() float64 {
	if env := os.Getenv("BENCH_GATE_TOL"); env != "" {
		if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
			return v
		}
		fmt.Fprintf(os.Stderr, "benchgate: ignoring bad BENCH_GATE_TOL=%q\n", env)
	}
	return 0.15
}

func main() {
	var (
		baseline  = flag.String("baseline", "artifacts/BENCH_core.json", "baseline report to gate against")
		out       = flag.String("out", "", "also write the current report here")
		write     = flag.Bool("write", false, "write the baseline from this run instead of comparing")
		tol       = flag.Float64("tol", defaultTol(), "allowed fractional ns/op growth after calibration")
		benchtime = flag.Duration("benchtime", time.Second, "minimum measurement time per bench")
		only      = flag.String("only", "", "gate only benches whose name contains this substring")
	)
	flag.Parse()

	cur, err := benchutil.RunCoreReport(*benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("calibration: %.0f MB/s raw XOR (%s, %s)\n", cur.CalibMBPerSec, cur.GoVersion, cur.GOARCH)
	for _, b := range cur.Benches {
		fmt.Printf("%-44s %10.0f ns/op %9.1f MB/s %8d xors  %.2f xors/unit\n",
			b.Name, b.NsPerOp, b.MBPerSec, b.XORs, b.XORsPerUnit)
	}
	if *out != "" {
		if err := benchutil.WriteCoreJSON(*out, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
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
	if *only != "" {
		// Filter both sides so CompareCore neither gates the other benches
		// nor flags them as missing.
		base.Benches = filterBenches(base.Benches, *only)
		cur.Benches = filterBenches(cur.Benches, *only)
		if len(base.Benches) == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: -only %q matches no baseline bench\n", *only)
			os.Exit(1)
		}
	}
	violations := benchutil.CompareCore(base, cur, *tol)
	if len(violations) == 0 {
		fmt.Printf("bench-gate: PASS against %s (tol %.0f%%)\n", *baseline, *tol*100)
		return
	}
	fmt.Fprintf(os.Stderr, "bench-gate: FAIL against %s (tol %.0f%%)\n", *baseline, *tol*100)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	os.Exit(1)
}
