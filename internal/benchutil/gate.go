package benchutil

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
)

// The perf-regression gate measures a small fixed set of core hot paths —
// Liberation encode, two-erasure decode and single-column correction, plus
// the Reed-Solomon engine's GF(2^8) encode and decodes — and records both
// the paper's cost metric (exact XOR counts, which are deterministic and
// machine-independent) and wall-clock timing (which is not). CompareCore
// then holds a current report against a checked-in baseline: any
// XOR-count increase fails outright, while timing is judged with a
// tolerance after normalising by the machines' raw copy throughput, so a
// slower CI runner does not read as a code regression.

// Shape of the gated workloads. Fixed forever: changing them invalidates
// the checked-in baseline.
const (
	gateK    = 8
	gateP    = 11 // NextOddPrime(gateK)
	gateElem = 1024
	gfElem   = 4 * KB // element size of the GF(2^8) benches
)

// calibBlock is the buffer size of the calibration copy: large enough to
// stream, small enough to stay in L2 so the number reflects the CPU, not
// the DRAM bus.
const calibBlock = 64 * KB

// CoreBench is one gated measurement: a named workload with its exact
// element-operation counts and its machine-dependent timing.
type CoreBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`  // heap bytes allocated per op
	AllocsPerOp int64   `json:"allocs_per_op"` // heap allocations per op
	XORs        uint64  `json:"xors"`          // exact element XORs per op
	Units       uint64  `json:"units"`         // elements touched (read or produced) per op
	XORsPerUnit float64 `json:"xors_per_unit"`
	// TolNsFrac, when nonzero, overrides the gate-wide ns/op tolerance
	// for this bench — a tightened band for workloads whose baseline was
	// just re-derived and should only ratchet down.
	TolNsFrac float64 `json:"tol_ns_frac,omitempty"`
}

// CoreReport is the bench-gate artifact (artifacts/BENCH_core.json): the
// gated benches plus the context needed to compare across machines.
type CoreReport struct {
	GoVersion     string      `json:"go_version"`
	GOARCH        string      `json:"goarch"`
	CalibMBPerSec float64     `json:"calib_mb_per_sec"`
	Benches       []CoreBench `json:"benches"`
}

// gateRounds repeats each measurement, keeping the best round (minimum
// ns/op). Scheduler and noisy-neighbour interference only ever slows a
// round down, so the best round is the closest estimate of the machine's
// true capability — the same idiom as Options.Rounds in the figure bench.
const gateRounds = 3

// measure times fn over gateRounds rounds of at least benchTime each and
// returns best-round ns/op and MB/s of payload, plus per-op heap traffic.
// fn is warmed once before timing starts.
func measure(benchTime time.Duration, bytesPerOp int, fn func()) (nsPerOp, mbPerSec float64, bytesAlloc, allocs int64) {
	fn() // warm-up: schedules built, caches touched
	for r := 0; r < gateRounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		iters := 0
		start := time.Now()
		for time.Since(start) < benchTime {
			for i := 0; i < 16; i++ { // amortise the clock reads
				fn()
			}
			iters += 16
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns := float64(elapsed.Nanoseconds()) / float64(iters)
		if r == 0 || ns < nsPerOp {
			nsPerOp = ns
			mbPerSec = float64(bytesPerOp) * float64(iters) / elapsed.Seconds() / 1e6
			bytesAlloc = int64(after.TotalAlloc-before.TotalAlloc) / int64(iters)
			allocs = int64(after.Mallocs-before.Mallocs) / int64(iters)
		}
	}
	return nsPerOp, mbPerSec, bytesAlloc, allocs
}

// calibrate measures this machine's raw copy throughput in MB/s: the
// common scale factor behind every gated bench, used by CompareCore to
// tell "this machine is slower" apart from "this code got slower". It
// times the builtin copy, which no change to this repository can speed up
// or slow down; timing one of the gated kernels instead would let a
// kernel change move its own yardstick and cancel out.
func calibrate(benchTime time.Duration) float64 {
	dst := make([]byte, calibBlock)
	src := make([]byte, calibBlock)
	for i := range src {
		src[i] = byte(i)
	}
	_, mbps, _, _ := measure(benchTime, calibBlock, func() { copy(dst, src) })
	return mbps
}

// RunCoreReport measures the gated workloads, spending at least benchTime
// per point (0 = 250ms). The XOR and unit counts are exactly reproducible;
// only the timing fields vary by machine.
func RunCoreReport(benchTime time.Duration) (*CoreReport, error) {
	if benchTime <= 0 {
		benchTime = 250 * time.Millisecond
	}
	code, err := codes.New("liberation", gateK, gateP)
	if err != nil {
		return nil, err
	}
	corrector := code.(core.ColumnCorrector)
	w := code.W()
	s := core.NewStripe(gateK, w, gateElem)
	for col := 0; col < gateK; col++ {
		for i := range s.Strips[col] {
			s.Strips[col][i] = byte(col + i) // deterministic fill
		}
	}

	rep := &CoreReport{
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		CalibMBPerSec: calibrate(benchTime),
	}
	add := func(name string, xors, units uint64, bytesPerOp int, fn func()) {
		ns, mbps, ba, al := measure(benchTime, bytesPerOp, fn)
		rep.Benches = append(rep.Benches, CoreBench{
			Name: name, NsPerOp: ns, MBPerSec: mbps,
			BytesPerOp: ba, AllocsPerOp: al,
			XORs: xors, Units: units, XORsPerUnit: float64(xors) / float64(units),
		})
	}

	// Encode: count XORs once (deterministic), then time without counting.
	var ops core.Ops
	if err := code.Encode(s, &ops); err != nil {
		return nil, err
	}
	add(fmt.Sprintf("liberation/encode/k=%d,p=%d,elem=%d", gateK, gateP, gateElem),
		ops.XORs, uint64(2*w), s.DataSize(),
		func() {
			if err := code.Encode(s, nil); err != nil {
				panic(err)
			}
		})

	// Decode of the worst-case pair of data erasures.
	erased := []int{0, 2}
	ops.Reset()
	if err := code.Decode(s, erased, &ops); err != nil {
		return nil, err
	}
	add(fmt.Sprintf("liberation/decode2/k=%d,p=%d,elem=%d,erased=0+2", gateK, gateP, gateElem),
		ops.XORs, uint64(2*w), s.DataSize(),
		func() {
			if err := code.Decode(s, erased, nil); err != nil {
				panic(err)
			}
		})

	// Single-column correction, as raidsim's scrubber runs it. Each op
	// re-corrupts one element and locates + repairs it.
	corrupt := func() { s.Elem(1, 0)[0] ^= 0xff }
	corrupt()
	ops.Reset()
	if col, err := corrector.CorrectColumn(s, &ops); err != nil {
		return nil, err
	} else if col != 1 {
		return nil, fmt.Errorf("benchutil: CorrectColumn healed column %d, want 1", col)
	}
	// Correction streams the syndromes of every column, so the bytes an op
	// touches are the whole stripe — (k+2)*w elements — not just the healed
	// column. The band is pinned tighter than the gate-wide tolerance: this
	// baseline was re-derived from the streamed path and should only
	// ratchet down.
	add(fmt.Sprintf("liberation/correct/k=%d,p=%d,elem=%d", gateK, gateP, gateElem),
		ops.XORs, uint64((gateK+2)*w), (gateK+2)*w*gateElem,
		func() {
			corrupt()
			if _, err := corrector.CorrectColumn(s, nil); err != nil {
				panic(err)
			}
		})
	rep.Benches[len(rep.Benches)-1].TolNsFrac = 0.10

	// The GF(2^8) kernel behind the one Reed-Solomon engine: rs3 encode,
	// its triple data loss, and the P+Q worst pair, at gfElem.
	for _, g := range []struct {
		code, name string
		k          int
		erased     []int
		units      uint64 // strips written per op
	}{
		{"rs3", "rs3/encode/k=6,m=3,elem=4096", 6, nil, 3},
		{"rs3", "rs3/decode3/k=6,m=3,elem=4096,erased=0+1+2", 6, []int{0, 1, 2}, 3},
		{"rs", "rs/decode2/k=8,elem=4096,erased=0+2", 8, []int{0, 2}, 2},
	} {
		c, err := codes.New(g.code, g.k, 0)
		if err != nil {
			return nil, err
		}
		gs := core.NewStripeFor(c, gfElem)
		gs.FillRandom(rand.New(rand.NewSource(1)))
		run := func(ops *core.Ops) error {
			if g.erased == nil {
				return c.Encode(gs, ops)
			}
			return c.Decode(gs, g.erased, ops)
		}
		ops.Reset()
		if err = c.Encode(gs, nil); err == nil {
			err = run(&ops)
		}
		if err != nil {
			return nil, err
		}
		add(g.name, ops.XORs, g.units, gs.DataSize(), func() {
			if err := run(nil); err != nil {
				panic(err)
			}
		})
	}
	return rep, nil
}

// CompareCore holds cur against base and returns the violations, one line
// each (nil means the gate passes):
//
//   - any difference in a bench's exact XOR count fails — the paper's
//     cost metric is deterministic, so even +-1 XOR is a real algorithmic
//     change, never noise. An increase is a regression; a decrease is an
//     improvement whose new count must be pinned by refreshing the
//     baseline (benchgate -write);
//   - ns/op may not exceed the baseline by more than tol (e.g. 0.15 =
//     +15%), after scaling by the two reports' calibration throughputs so
//     machine speed cancels out (skipped if either calibration is 0). A
//     bench with a nonzero TolNsFrac uses that band instead;
//   - every baseline bench must still be present.
//
// Allocation counts are recorded for inspection but not gated: they move
// with the Go runtime version, not with this repository's algorithms.
func CompareCore(base, cur *CoreReport, tol float64) []string {
	var violations []string
	curBy := make(map[string]CoreBench, len(cur.Benches))
	for _, b := range cur.Benches {
		curBy[b.Name] = b
	}
	scale := 1.0
	if base.CalibMBPerSec > 0 && cur.CalibMBPerSec > 0 {
		scale = cur.CalibMBPerSec / base.CalibMBPerSec
	}
	for _, b := range base.Benches {
		c, ok := curBy[b.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			continue
		}
		switch {
		case c.XORs > b.XORs:
			violations = append(violations,
				fmt.Sprintf("%s: xors %d > baseline %d (+%d; XOR counts are exact — any increase is a regression)",
					b.Name, c.XORs, b.XORs, c.XORs-b.XORs))
		case c.XORs < b.XORs:
			violations = append(violations,
				fmt.Sprintf("%s: xors %d < baseline %d (-%d; an improvement — pin the new count with benchgate -write)",
					b.Name, c.XORs, b.XORs, b.XORs-c.XORs))
		}
		bandTol := tol
		if b.TolNsFrac > 0 {
			bandTol = b.TolNsFrac
		}
		nsNorm := c.NsPerOp * scale
		if limit := b.NsPerOp * (1 + bandTol); nsNorm > limit {
			violations = append(violations,
				fmt.Sprintf("%s: ns/op %.0f (normalised %.0f) > baseline %.0f +%.0f%% tolerance",
					b.Name, c.NsPerOp, nsNorm, b.NsPerOp, bandTol*100))
		}
	}
	return violations
}

// WriteCoreJSON writes the report as indented JSON to path.
func WriteCoreJSON(path string, rep *CoreReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCoreJSON reads a report written by WriteCoreJSON.
func LoadCoreJSON(path string) (*CoreReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep CoreReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchutil: %s: %w", path, err)
	}
	return &rep, nil
}
