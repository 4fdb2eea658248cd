package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// testSizes shrink every workload so that even under the race detector a
// run reaches 100 ops per class within a second or two; the code path is
// the benchmark's own.
var testSizes = sizes{big: 64 << 10, small: 8 << 10, names: 8, rs3: 16 << 10, elem: 512, stripes: 16}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesBench keeps BENCHMARK.json and the bench's tables equal.
func TestSpecMatchesBench(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the bench %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], bench %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// runForTest runs one workload as main would and returns its printed
// output and parsed last line.
func runForTest(t *testing.T, cfg config) (string, result) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, out.String())
	}
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	last, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), last
}

// TestSmokeAllWorkloads runs every workload briefly at reduced sizes,
// untraced and traced, and checks that every metric BENCHMARK.json lists
// is printed by name and is finite, and that no op failed.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.5, trace: traced, sz: testSizes}
			want := spec.EndToEnd
			if traced {
				cfg.traceDir = t.TempDir()
				want = spec.PerLayer
			}
			out, res := runForTest(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics in the result, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, present %t", w.name, traced, d.Name, v, ok)
				}
				if !strings.Contains(out, "metric "+d.Name+" ") {
					t.Errorf("%s traced=%t: metric %s not printed", w.name, traced, d.Name)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, v.Value)
				}
			}
			if traced {
				for _, f := range []string{w.name + ".spans.jsonl", w.name + ".layers.json"} {
					if st, err := os.Stat(filepath.Join(cfg.traceDir, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: trace file %s missing or empty (%v)", w.name, f, err)
					}
				}
			}
		}
	}
}

// TestXORsPerUnitMatchesGate pins the traced code.xors_per_unit to the
// exact counts of the kernel gate (artifacts/BENCH_core.json): 154/22 for
// a k=8 p=11 encode and 163/22 for the d00+d02 decode.
func TestXORsPerUnitMatchesGate(t *testing.T) {
	for _, c := range []struct {
		workload string
		want     float64
	}{{"encode-64m", 154.0 / 22}, {"read-2lost-64m", 163.0 / 22}} {
		_, res := runForTest(t, config{workload: c.workload, seed: 1, seconds: 0.2, trace: true, sz: testSizes})
		if got := res.Metrics["code.xors_per_unit"].Value; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: code.xors_per_unit = %v, want %v", c.workload, got, c.want)
		}
		if got := res.Metrics["shard.attempts_per_op"].Value; c.workload == "read-2lost-64m" && got != 1 {
			t.Errorf("%s: shard.attempts_per_op = %v, want 1", c.workload, got)
		}
	}
}

// flipStore flips one bit of the first write into a repair's temporary
// shard, below the program: the write succeeds and the wrong byte lands.
type flipStore struct {
	store.Store
	done *atomic.Bool
}

func (s flipStore) Create(path string) (store.File, error) {
	f, err := s.Store.Create(path)
	if err != nil || !strings.HasSuffix(path, ".repair") {
		return f, err
	}
	return flipFile{f, s.done}, nil
}

type flipFile struct {
	store.File
	done *atomic.Bool
}

func (f flipFile) WriteAt(p []byte, off int64) (int, error) {
	if len(p) > 0 && f.done.CompareAndSwap(false, true) {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 1
		return f.File.WriteAt(q, off)
	}
	return f.File.WriteAt(p, off)
}

// TestFlippedByteFailsTheRun proves that a wrong byte written by the
// store is caught: the run reports a failure and the command would exit
// non-zero.
func TestFlippedByteFailsTheRun(t *testing.T) {
	var done atomic.Bool
	wrap := func(st store.Store) store.Store { return flipStore{st, &done} }
	_, res := runForTest(t, config{workload: "repair-64m", seed: 1, seconds: 0.2, sz: testSizes, wrap: wrap})
	if !done.Load() {
		t.Fatal("no byte was flipped")
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("flipped byte not reported: correct=%t failed=%d", res.Correct, res.Failed)
	}
}

func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"--trace", "2"}, 2},
		{[]string{"--seconds", "0"}, 2},
		{[]string{"--bogus"}, 2},
		{[]string{"--workload", "nope", "--seconds", "1"}, 1},
	} {
		var out bytes.Buffer
		if got := mainExit(c.args, &out); got != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, got, c.code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", c.args)
		}
	}
}
