package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/raidsim"
	"repro/internal/store"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured time; a traced run splits it between its two phases
	trace    bool
	traceDir string // where a traced run writes its spans and layer totals ("" = nowhere)

	sz   sizes                         // benchSizes outside tests
	wrap func(store.Store) store.Store // test-only: wraps the shard workloads' store
}

// env is what a workload instance runs against.
type env struct {
	seed  int64
	sz    sizes
	trace bool
	wrap  func(store.Store) store.Store
	reg   *obs.Registry // the program's registry: the array's always, shard ops' in the traced phase
	tr    *tracer       // set during the traced phase
	arr   *raidsim.Array
}

// begin and end time one call into the program; in the traced phase they
// also open and close the op's root span.
func (e *env) begin() time.Time {
	t0 := time.Now()
	if e.tr != nil {
		e.tr.beginOp(t0)
	}
	return t0
}

func (e *env) end(t0 time.Time, name string, bytes int64) int64 {
	t1 := time.Now()
	if e.tr != nil {
		e.tr.endOp(name, t1, bytes)
	}
	return t1.Sub(t0).Nanoseconds()
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// minBeyond is the number of samples a reported percentile needs above
// it; p90 therefore needs 100 ops per class.
const minBeyond = 10

// metricDef names a metric and its unit. The two lists are the metrics
// BENCHMARK.json declares, in the order the bench prints them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_MBps", "MB/s"},
	{"p90_us", "us"},
	{"setup_s", "s"},
	{"heap_peak_MB", "MB"},
}

var perLayer = []metricDef{
	{"store.read_B_per_user_B", "B/B"},
	{"store.read_calls_per_op", "count"},
	{"store.write_B_per_user_B", "B/B"},
	{"store.write_calls_per_op", "count"},
	{"store.sync_per_op", "count"},
	{"store.meta_calls_per_op", "count"},
	{"store.busy_frac", "frac"},
	{"shard.probe_frac", "frac"},
	{"shard.encode.read_frac", "frac"},
	{"shard.encode.code_frac", "frac"},
	{"shard.encode.write_frac", "frac"},
	{"shard.encode.read_wait_frac", "frac"},
	{"shard.encode.code_wait_frac", "frac"},
	{"shard.encode.write_wait_frac", "frac"},
	{"shard.self_frac", "frac"},
	{"shard.attempts_per_op", "count"},
	{"code.busy_frac", "frac"},
	{"code.MBps", "MB/s"},
	{"code.xors_per_unit", "xor/unit"},
	{"code.calls_per_op", "count"},
	{"raidsim.self_frac", "frac"},
	{"raidsim.parity_elems_per_write", "count"},
	{"obs.spans_per_op", "count"},
	{"go.alloc_B_per_op", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phase is one measured stretch of a run, traced or not.
type phase struct {
	lat      [][]int64 // op latencies in ns, per class
	ops      int64
	bytes    int64
	busy     int64 // sum of op latencies, ns
	failed   int64
	heapPeak float64 // median over GC cycles of the cycle's largest heap-object bytes
	calNs    float64 // median time of the calibration copy

	reg0, reg1       obs.Snapshot
	rt0, rt1         runtimeSample
	parity0, parity1 uint64
}

// run sets the workload up, measures it, checks it, and prints the
// metrics by name to out, the result JSON last.
func run(cfg config, out io.Writer) (result, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	e := &env{seed: cfg.seed, sz: cfg.sz, trace: cfg.trace, wrap: cfg.wrap, reg: obs.NewRegistry()}
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())

	cal, err := newCalibrator()
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		for k := 0; k < 3; k++ {
			cal.sample()
		}
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	setupS := median(setups) * refCopyNs / median(cal.ns)
	runtime.GC()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced *phase
	var tr *tracer
	if cfg.trace {
		plain = measure(e, w, inst, cal, dur/2, false)
		tr = newTracer()
		e.tr = tr
		traced = measure(e, w, inst, cal, dur/2, false)
		e.tr = nil
	} else {
		plain = measure(e, w, inst, cal, dur, true)
	}

	res := result{Attempted: plain.ops, Failed: plain.failed, Metrics: map[string]metricValue{}}
	if traced != nil {
		res.Attempted += traced.ops
		res.Failed += traced.failed
	}
	if c, ok := inst.(checker); ok {
		res.Attempted++
		if err := c.check(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s end-of-run check: %v\n", w.name, err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(out, "setup samples (s): %s\n", fmtFloats(setups))
	fmt.Fprintln(out, "unscaled op latency:")
	for c, name := range w.classes {
		printClass(out, name, plain.lat[c])
	}
	fmt.Fprintf(out, "host speed: calibration copy median %.1f us, reference %.1f us; the times below are scaled by %.4f\n",
		plain.calNs/1e3, refCopyNs/1e3, refCopyNs/plain.calNs)
	e2e, err := endToEndMetrics(w, plain, setupS, !cfg.trace)
	if err != nil {
		return res, err
	}
	printMetrics(out, endToEnd, e2e, plain.ops)
	if !cfg.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	} else {
		layers := layerMetrics(e, tr, plain, traced)
		fmt.Fprintf(out, "per-layer (traced phase: %d ops, %.3f s in ops; untraced phase: %d ops)\n",
			traced.ops, float64(traced.busy)/1e9, plain.ops)
		printMetrics(out, perLayer, layers, traced.ops)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
		if cfg.traceDir != "" {
			if err := writeTrace(cfg.traceDir, w.name, tr, layers); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// measure runs ops for at least dur. When the phase reports percentiles
// it goes on until each class has enough samples, up to four times dur.
func measure(e *env, w *workload, inst instance, cal *calibrator, dur time.Duration, percentiles bool) *phase {
	ph := &phase{lat: make([][]int64, len(w.classes))}
	cal.ns = cal.ns[:0]
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	ph.reg0, ph.rt0 = e.reg.Snapshot(), readRuntime()
	if e.arr != nil {
		ph.parity0 = e.arr.Stats.ParityElemWrites
	}
	enough := func() bool {
		for _, l := range ph.lat {
			if len(l) < minSamples(0.90) {
				return false
			}
		}
		return true
	}
	var heapPeak, cycle uint64
	var heapPeaks []float64 // one per completed GC cycle
	start := time.Now()
	for {
		cal.maybe()
		el := time.Since(start)
		if el >= 4*dur || el >= dur && (!percentiles || enough()) {
			break
		}
		r := inst.op()
		ph.lat[r.class] = append(ph.lat[r.class], r.dur)
		ph.ops++
		ph.bytes += r.bytes
		ph.busy += r.dur
		if r.err != nil {
			if ph.failed < 5 {
				fmt.Fprintf(os.Stderr, "e2ebench: %s op %d: %v\n", w.name, ph.ops, r.err)
			}
			ph.failed++
		}
		metrics.Read(heap)
		if c := heap[1].Value.Uint64(); c != cycle {
			if cycle != 0 {
				heapPeaks = append(heapPeaks, float64(heapPeak))
			}
			cycle, heapPeak = c, 0
		}
		heapPeak = max(heapPeak, heap[0].Value.Uint64())
	}
	ph.reg1, ph.rt1 = e.reg.Snapshot(), readRuntime()
	if len(heapPeaks) == 0 {
		heapPeaks = append(heapPeaks, float64(heapPeak))
	}
	ph.heapPeak = median(heapPeaks)
	ph.calNs = median(cal.ns)
	if e.arr != nil {
		ph.parity1 = e.arr.Stats.ParityElemWrites
	}
	return ph
}

// The shared host the bounds were measured on changes speed by up to 2x
// within seconds as its other tenants load it. That moves every time of a
// run together and, uncorrected, spreads a run's times by 8-29% between
// runs (README.md has the measurements). So a run also times a fixed
// 8 MiB memory copy of the bench's own, before each set-up and between
// ops every calEvery, and reports every time t as t*refCopyNs/c, with c
// the copy's median time in that phase: times at a reference host speed.
// The copy is not program code, so no change to the program can make it
// faster.
const (
	calBytes  = 8 << 20
	calEvery  = 50 * time.Millisecond
	refCopyNs = 1.2e6 // about the copy's median on that host
)

type calibrator struct {
	src, dst []byte // off the Go heap, so they stay out of heap_peak_MB
	last     time.Time
	ns       []float64
}

func newCalibrator() (*calibrator, error) {
	src, err := mapBytes(calBytes)
	if err != nil {
		return nil, err
	}
	dst, err := mapBytes(calBytes)
	if err != nil {
		unmap(src)
		return nil, err
	}
	fill(src, 1)
	return &calibrator{src: src, dst: dst}, nil
}

// maybe times one copy when calEvery has passed since the last.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calEvery {
		c.sample()
	}
}

func (c *calibrator) sample() {
	t0 := time.Now()
	copy(c.dst, c.src)
	c.last = time.Now()
	c.ns = append(c.ns, float64(c.last.Sub(t0).Nanoseconds()))
}

func (c *calibrator) close() {
	unmap(c.src)
	unmap(c.dst)
}

// minSamples is the sample count at which percentile q has minBeyond
// samples above it.
func minSamples(q float64) int { return int(math.Round(minBeyond / (1 - q))) }

// percentile returns the nearest-rank q-quantile of sorted ns samples.
func percentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// endToEndMetrics derives the end-to-end metrics of an untraced phase,
// with every time at the reference host speed (see refCopyNs); setupS is
// already scaled.
func endToEndMetrics(w *workload, ph *phase, setupS float64, strict bool) (map[string]float64, error) {
	scale := refCopyNs / ph.calNs
	// p90_us is the geometric mean over the workload's op classes of each
	// class's p90: one number per workload that moves when any class does.
	logSum := 0.0
	for c, l := range ph.lat {
		if strict && len(l) < minSamples(0.90) {
			return nil, fmt.Errorf("%s: class %s has %d ops, p90 needs %d",
				w.name, w.classes[c], len(l), minSamples(0.90))
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("%s: no %s ops", w.name, w.classes[c])
		}
		s := slices.Clone(l)
		slices.Sort(s)
		logSum += math.Log(float64(percentile(s, 0.90)))
	}
	return map[string]float64{
		"throughput_MBps": ratio(float64(ph.bytes)/1e6, scale*float64(ph.busy)/1e9),
		"p90_us":          scale * math.Exp(logSum/float64(len(ph.lat))) / 1e3,
		"setup_s":         setupS,
		"heap_peak_MB":    ph.heapPeak / 1e6,
	}, nil
}

// layerMetrics derives the per-layer metrics. The traced phase gives the
// layer split; the Go runtime metrics and the untraced throughput come
// from the untraced phase. Metrics of a layer the workload does not use
// are 0.
func layerMetrics(e *env, tr *tracer, plain, traced *phase) map[string]float64 {
	wall := float64(traced.busy) / 1e9
	ops := float64(traced.ops)
	user := float64(traced.bytes)
	m := map[string]float64{}

	st := tr.store
	storeBusy := st.busy.Seconds()
	m["store.read_B_per_user_B"] = ratio(float64(st.readBytes), user)
	m["store.read_calls_per_op"] = ratio(float64(st.reads), ops)
	m["store.write_B_per_user_B"] = ratio(float64(st.writeBytes), user)
	m["store.write_calls_per_op"] = ratio(float64(st.writes), ops)
	m["store.sync_per_op"] = ratio(float64(st.syncs), ops)
	m["store.meta_calls_per_op"] = ratio(float64(st.meta), ops)
	m["store.busy_frac"] = ratio(storeBusy, wall)

	hist := func(name string) float64 {
		return traced.reg1.Histograms[name].Sum - traced.reg0.Histograms[name].Sum
	}
	counter := func(name string) float64 {
		return float64(traced.reg1.Counters[name] - traced.reg0.Counters[name])
	}
	m["shard.probe_frac"] = ratio(hist("shard.probe.seconds"), wall)
	for _, stage := range []struct{ metric, hist string }{
		{"read", "read"}, {"code", "encode"}, {"write", "write"},
	} {
		m["shard.encode."+stage.metric+"_frac"] = ratio(hist("shard.encode."+stage.hist+".seconds"), wall)
		m["shard.encode."+stage.metric+"_wait_frac"] = ratio(hist("shard.encode."+stage.hist+".wait.seconds"), wall)
	}
	m["shard.attempts_per_op"] = ratio(counter("shard.attempt.calls"),
		counter("shard.decode.calls")+counter("shard.repair.calls"))

	// The code layer: the array's decorator, or on the shard workloads the
	// code families' own spans in the program's registry.
	code := tr.code
	if e.arr == nil {
		for name, s1 := range traced.reg1.Spans {
			if !strings.HasPrefix(name, "liberation.") && !strings.HasPrefix(name, "rsm.") {
				continue
			}
			s0 := traced.reg0.Spans[name]
			code.calls += int64(s1.Calls - s0.Calls)
			code.bytes += int64(s1.Bytes - s0.Bytes)
			code.units += int64(s1.Units - s0.Units)
			code.xors += int64(s1.XORs - s0.XORs)
			code.busy += time.Duration((s1.Latency.Sum - s0.Latency.Sum) * 1e9)
		}
	}
	codeBusy := code.busy.Seconds()
	m["code.busy_frac"] = ratio(codeBusy, wall)
	m["code.MBps"] = ratio(float64(code.bytes)/1e6, codeBusy)
	m["code.xors_per_unit"] = ratio(float64(code.xors), float64(code.units))
	m["code.calls_per_op"] = ratio(float64(code.calls), ops)

	if e.arr != nil {
		m["raidsim.self_frac"] = ratio(wall-codeBusy, wall)
		m["raidsim.parity_elems_per_write"] = ratio(float64(traced.parity1-traced.parity0),
			float64(len(traced.lat[0])))
	} else {
		m["shard.self_frac"] = 1 - m["store.busy_frac"] - m["code.busy_frac"]
	}

	spans := 0.0
	for name := range traced.reg1.Counters {
		if strings.HasSuffix(name, ".calls") {
			spans += counter(name)
		}
	}
	m["obs.spans_per_op"] = ratio(spans, ops)

	m["go.alloc_B_per_op"] = ratio(plain.rt1.allocBytes-plain.rt0.allocBytes, float64(plain.ops))
	m["go.gc_cpu_frac"] = ratio(plain.rt1.gcCPU-plain.rt0.gcCPU, plain.rt1.totalCPU-plain.rt0.totalCPU)
	// Each phase's throughput at the reference host speed, so that a change
	// of host speed between the phases does not read as tracing cost.
	speed := func(ph *phase) float64 { return ratio(float64(ph.bytes)*ph.calNs, float64(ph.busy)) }
	m["trace_overhead_frac"] = 1 - ratio(speed(traced), speed(plain))

	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m
}

type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printClass(out io.Writer, name string, lat []int64) {
	if len(lat) == 0 {
		return
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	fmt.Fprintf(out, "class %-6s ops=%d", name, len(s))
	for _, q := range []float64{0.50, 0.90, 0.99} {
		if len(s) >= minSamples(q) || q == 0.50 {
			fmt.Fprintf(out, " p%g_us=%.1f", 100*q, float64(percentile(s, q))/1e3)
		}
	}
	fmt.Fprintln(out)
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]float64, n int64) {
	for _, d := range defs {
		fmt.Fprintf(out, "metric %-30s %14.4f %-8s n=%d\n", d.name, m[d.name], d.unit, n)
	}
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// writeTrace writes dir/<workload>.spans.jsonl and dir/<workload>.layers.json.
func writeTrace(dir, name string, tr *tracer, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.writeSpans(filepath.Join(dir, name+".spans.jsonl")); err != nil {
		return err
	}
	doc := map[string]any{"workload": name, "spans_kept": len(tr.spans), "spans_total": tr.nextID, "metrics": layers}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".layers.json"), append(b, '\n'), 0o644)
}

// printResult prints the result JSON as the last line.
func printResult(out io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
