package raidsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/liberation"
)

// TestMetricsGoldenSnapshot runs a scripted sequence on an instrumented
// array (a full write, small writes, reads, erroring calls, a scrub that
// repairs a corrupt disk, and a degraded read and rebuild) and pins
// every counter's name and value, every gauge's name and every
// histogram's observation count. Latency buckets depend on the host, so
// only the counts are pinned. The golden values pin the metric surface
// the array and its code present: however spans and counters record, a
// snapshot must hold the same metrics with the same values.
func TestMetricsGoldenSnapshot(t *testing.T) {
	code, err := liberation.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(code, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	newTestRegistry(a)

	rng := rand.New(rand.NewSource(25))
	data := make([]byte, a.Capacity())
	rng.Read(data)
	mustNil := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustNil(a.Write(0, data))
	// Small writes: one spanning elements of two strips, three of one
	// element each.
	patch := make([]byte, 50)
	rng.Read(patch)
	mustNil(a.Write(21, patch))
	for _, off := range []int{0, 400, 1000} {
		mustNil(a.Write(off, patch[:a.ElemSize()]))
	}
	buf := make([]byte, 300)
	mustNil(a.Read(0, buf))
	mustNil(a.Read(777, buf[:16]))

	// Erroring calls: two the array refuses before it starts a span, and
	// a decode the instrumented code fails inside its span.
	if err := a.Read(a.Capacity(), buf[:1]); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := a.Write(-1, buf[:1]); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative write: %v", err)
	}
	if err := code.Decode(a.load(0), []int{0, 1, 2}, nil); !errors.Is(err, core.ErrTooManyErasures) {
		t.Fatalf("three-erasure decode: %v", err)
	}

	mustNil(a.CorruptDisk(1, 5, 3, 0xa5))
	res, err := a.Scrub()
	mustNil(err)
	if len(res) != 1 || res[0].Disk != 1 {
		t.Fatalf("scrub repaired %+v, want one repair on disk 1", res)
	}

	mustNil(a.FailDisk(3))
	mustNil(a.Read(100, buf))
	mustNil(a.Rebuild())

	snap := a.Metrics()
	var got []string
	for name, v := range snap.Counters {
		got = append(got, fmt.Sprintf("counter %s = %d", name, v))
	}
	for name := range snap.Gauges {
		got = append(got, "gauge "+name)
	}
	for name, h := range snap.Histograms {
		got = append(got, fmt.Sprintf("histogram %s count = %d", name, h.Count))
	}
	sort.Strings(got)
	if g, w := strings.Join(got, "\n"), strings.TrimSpace(goldenMetrics); g != w {
		t.Errorf("snapshot differs from the golden one\ngot:\n%s\nwant:\n%s", g, w)
	}
}

const goldenMetrics = `
counter liberation.correct.bytes = 1600
counter liberation.correct.calls = 4
counter liberation.correct.xors = 223
counter liberation.decode.bytes = 2400
counter liberation.decode.calls = 6
counter liberation.decode.copies = 25
counter liberation.decode.errors = 1
counter liberation.decode.units = 40
counter liberation.decode.xors = 100
counter liberation.encode.bytes = 1600
counter liberation.encode.calls = 4
counter liberation.encode.copies = 40
counter liberation.encode.units = 40
counter liberation.encode.xors = 160
counter liberation.update.bytes = 128
counter liberation.update.calls = 8
counter liberation.update.units = 16
counter liberation.update.xors = 24
counter raid.degraded_reads = 1
counter raid.parity_elem_writes = 16
counter raid.read.bytes = 616
counter raid.read.calls = 3
counter raid.read.copies = 5
counter raid.read.units = 3
counter raid.read.xors = 20
counter raid.rebuild.bytes = 1600
counter raid.rebuild.calls = 1
counter raid.rebuild.copies = 20
counter raid.rebuild.units = 1
counter raid.rebuild.xors = 80
counter raid.scrub.bytes = 1600
counter raid.scrub.calls = 1
counter raid.scrub.repairs = 1
counter raid.scrub.units = 1
counter raid.scrub.xors = 223
counter raid.small_writes = 8
counter raid.stripe_encodes = 4
counter raid.stripes_rebuilt = 4
counter raid.write.bytes = 1698
counter raid.write.calls = 5
counter raid.write.copies = 40
counter raid.write.units = 5
counter raid.write.xors = 184
gauge raid.rebuild.progress
histogram liberation.correct.seconds count = 4
histogram liberation.decode.seconds count = 6
histogram liberation.encode.seconds count = 4
histogram liberation.update.seconds count = 8
histogram raid.read.seconds count = 3
histogram raid.rebuild.seconds count = 1
histogram raid.scrub.seconds count = 1
histogram raid.write.seconds count = 5
`
