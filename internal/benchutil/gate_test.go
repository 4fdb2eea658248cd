package benchutil

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const gateTestTime = 5 * time.Millisecond

// TestCoreReportDeterministicXORs pins that the gated XOR counts are exact
// and reproducible — the property the whole gate rests on: two runs on the
// same code must agree to the last XOR, and every workload must do real
// work.
func TestCoreReportDeterministicXORs(t *testing.T) {
	a, err := RunCoreReport(gateTestTime)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCoreReport(gateTestTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Benches) != 6 || len(b.Benches) != 6 {
		t.Fatalf("bench counts = %d/%d, want 6", len(a.Benches), len(b.Benches))
	}
	for i, ab := range a.Benches {
		bb := b.Benches[i]
		if ab.Name != bb.Name || ab.XORs != bb.XORs || ab.Units != bb.Units {
			t.Errorf("run disagreement: %q xors=%d units=%d vs %q xors=%d units=%d",
				ab.Name, ab.XORs, ab.Units, bb.Name, bb.XORs, bb.Units)
		}
		if ab.XORs == 0 || ab.Units == 0 || ab.NsPerOp <= 0 || ab.MBPerSec <= 0 {
			t.Errorf("%q: degenerate measurement %+v", ab.Name, ab)
		}
	}
	// The paper's optimality claim, checked at gate shape: encoding k=8
	// data strips into two parities costs k-1 XORs per parity element
	// plus the (p-1)/2 extra from the Q column's bit offsets — strictly
	// under k XORs per parity element.
	enc := a.Benches[0]
	if perUnit := enc.XORsPerUnit; perUnit < float64(gateK-1) || perUnit >= float64(gateK) {
		t.Errorf("encode xors/unit = %v, want in [k-1, k) = [%d, %d)", perUnit, gateK-1, gateK)
	}
	// Every Reed-Solomon strip written is one k-source dot product: k-1
	// XORs per unit, on encode and on decode alike.
	for i, k := range []float64{6, 6, 8} {
		if rsb := a.Benches[3+i]; rsb.XORsPerUnit != k-1 {
			t.Errorf("%s: xors/unit = %v, want k-1 = %v", rsb.Name, rsb.XORsPerUnit, k-1)
		}
	}
	if a.CalibMBPerSec <= 0 {
		t.Errorf("calibration throughput = %v, want > 0", a.CalibMBPerSec)
	}
}

// TestGateFailsInjectedXORRegression is the gate's acceptance scenario: a
// +20% XOR-count regression injected into an otherwise identical report
// must fail CompareCore, with the failure naming the bench and the counts.
func TestGateFailsInjectedXORRegression(t *testing.T) {
	base, err := RunCoreReport(gateTestTime)
	if err != nil {
		t.Fatal(err)
	}
	if v := CompareCore(base, base, 0.15); v != nil {
		t.Fatalf("report does not pass against itself: %v", v)
	}

	cur := *base
	cur.Benches = append([]CoreBench(nil), base.Benches...)
	cur.Benches[0].XORs += cur.Benches[0].XORs / 5 // +20%
	violations := CompareCore(base, &cur, 0.15)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly the XOR regression", violations)
	}
	if !strings.Contains(violations[0], cur.Benches[0].Name) ||
		!strings.Contains(violations[0], "xors") {
		t.Errorf("violation %q does not name the bench and the metric", violations[0])
	}

	// Even a single extra XOR fails: the count is exact, never noisy.
	cur.Benches[0].XORs = base.Benches[0].XORs + 1
	if v := CompareCore(base, &cur, 0.15); len(v) != 1 {
		t.Errorf("+1 XOR not caught: %v", v)
	}
	// A decrease is an improvement, but the gate is strict equality: it
	// fails too, telling the author to pin the better count in the
	// baseline rather than leave it unguarded.
	cur.Benches[0].XORs = base.Benches[0].XORs - 1
	v := CompareCore(base, &cur, 0.15)
	if len(v) != 1 {
		t.Fatalf("-1 XOR not caught: %v", v)
	}
	if !strings.Contains(v[0], "improvement") || !strings.Contains(v[0], "-write") {
		t.Errorf("violation %q should point at refreshing the baseline", v[0])
	}
}

// TestGatePerBenchTolerance checks that a bench carrying its own TolNsFrac
// is judged against that band instead of the gate-wide tolerance.
func TestGatePerBenchTolerance(t *testing.T) {
	base := &CoreReport{
		CalibMBPerSec: 1000,
		Benches:       []CoreBench{{Name: "x", NsPerOp: 1000, XORs: 10, Units: 5, TolNsFrac: 0.10}},
	}
	cur := func(ns float64) *CoreReport {
		return &CoreReport{
			CalibMBPerSec: 1000,
			Benches:       []CoreBench{{Name: "x", NsPerOp: ns, XORs: 10, Units: 5}},
		}
	}
	// +12% is inside the 15% global band but outside the bench's own 10%.
	if v := CompareCore(base, cur(1120), 0.15); len(v) != 1 {
		t.Errorf("+12%% beyond the bench's 10%% band passed: %v", v)
	}
	if v := CompareCore(base, cur(1080), 0.15); v != nil {
		t.Errorf("+8%% inside the bench's 10%% band flagged: %v", v)
	}
}

// TestGateThroughputTolerance checks the timing arm: ns/op inside the
// tolerance band passes, beyond it fails, and the calibration scaling
// cancels pure machine-speed differences in either direction.
func TestGateThroughputTolerance(t *testing.T) {
	base := &CoreReport{
		CalibMBPerSec: 1000,
		Benches:       []CoreBench{{Name: "x", NsPerOp: 1000, XORs: 10, Units: 5}},
	}
	cur := func(ns, calib float64) *CoreReport {
		return &CoreReport{
			CalibMBPerSec: calib,
			Benches:       []CoreBench{{Name: "x", NsPerOp: ns, XORs: 10, Units: 5}},
		}
	}
	if v := CompareCore(base, cur(1100, 1000), 0.15); v != nil {
		t.Errorf("+10%% inside 15%% tolerance flagged: %v", v)
	}
	if v := CompareCore(base, cur(1300, 1000), 0.15); len(v) != 1 {
		t.Errorf("+30%% beyond 15%% tolerance passed: %v", v)
	}
	// Twice-as-slow machine, same code: raw ns doubles, calibration
	// halves, normalised ns is unchanged — must pass.
	if v := CompareCore(base, cur(2000, 500), 0.15); v != nil {
		t.Errorf("slow machine misread as code regression: %v", v)
	}
	// Twice-as-fast machine hiding a real +30% code regression: raw ns
	// looks better than baseline, normalisation exposes it.
	if v := CompareCore(base, cur(650, 2000), 0.15); len(v) != 1 {
		t.Errorf("fast machine masked a code regression: %v", v)
	}
	// Missing calibration (hand-written baseline): raw ns compared.
	if v := CompareCore(&CoreReport{Benches: base.Benches}, cur(1100, 0), 0.15); v != nil {
		t.Errorf("uncalibrated comparison flagged in-tolerance ns: %v", v)
	}
	// A bench dropped from the current report is itself a violation.
	if v := CompareCore(base, &CoreReport{CalibMBPerSec: 1000}, 0.15); len(v) != 1 {
		t.Errorf("missing bench not flagged: %v", v)
	}
}

// TestCoreJSONRoundTrip checks the artifact survives write + load intact.
func TestCoreJSONRoundTrip(t *testing.T) {
	rep, err := RunCoreReport(gateTestTime)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if err := WriteCoreJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCoreJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != rep.GoVersion || len(got.Benches) != len(rep.Benches) {
		t.Fatalf("round trip changed the report: %+v vs %+v", got, rep)
	}
	for i := range got.Benches {
		if got.Benches[i] != rep.Benches[i] {
			t.Errorf("bench %d changed: %+v vs %+v", i, got.Benches[i], rep.Benches[i])
		}
	}
	if v := CompareCore(rep, got, 0.15); v != nil {
		t.Errorf("round-tripped report fails against its source: %v", v)
	}
}
