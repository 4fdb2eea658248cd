package raidsim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/liberation"
)

// TestStatsGolden pins the array's operation counters over a fixed seeded
// sequence: healthy full-stripe and small writes and reads, then two
// failed disks under degraded reads (one element, several stripes, the
// whole array) and degraded writes. The values move only when an
// operation does a different amount of coding work: they pin one decode
// per degraded stripe per Read (even one that lost only parity), one
// encode per degraded stripe per Write, and the exact XOR and copy totals.
func TestStatsGolden(t *testing.T) {
	lib, err := liberation.New(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(lib, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := make([]byte, a.Capacity())
	rng.Read(model)
	if err := a.Write(0, model); err != nil {
		t.Fatal(err)
	}
	write := func(off, n int) {
		t.Helper()
		buf := make([]byte, n)
		rng.Read(buf)
		if err := a.Write(off, buf); err != nil {
			t.Fatalf("write(%d,%d): %v", off, n, err)
		}
		copy(model[off:], buf)
	}
	read := func(off, n int) {
		t.Helper()
		got := make([]byte, n)
		if err := a.Read(off, got); err != nil {
			t.Fatalf("read(%d,%d): %v", off, n, err)
		}
		if !bytes.Equal(got, model[off:off+n]) {
			t.Fatalf("read(%d,%d) diverges from the written bytes", off, n)
		}
	}
	random := func(ops int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			off := rng.Intn(a.Capacity())
			n := 1 + rng.Intn(min(400, a.Capacity()-off))
			if rng.Intn(2) == 0 {
				write(off, n)
			} else {
				read(off, n)
			}
		}
	}
	random(40)
	for _, d := range []int{2, 3} { // stripe 4 loses both P and Q
		if err := a.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	read(5*7*32+3*32, 32) // one element of stripe 1
	read(100, 3*5*7*32)   // across four stripes
	read(0, a.Capacity()) // the whole array
	random(40)

	want := Stats{
		StripeEncodes:    32,
		SmallWrites:      147,
		ParityElemWrites: 313,
		DegradedReads:    56,
		Ops:              core.Ops{XORs: 5440, Copies: 1232},
	}
	if a.Stats != want {
		t.Errorf("stats after the fixed sequence:\n got %+v\nwant %+v", a.Stats, want)
	}
}
