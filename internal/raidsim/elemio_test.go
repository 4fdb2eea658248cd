package raidsim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/liberation"
)

// TestElementIOAllocatesNothing pins the in-place element I/O paths: on a
// healthy, uninstrumented array a one-element Read copies straight from
// its strip and a one-element Write patches parity through the array's
// own old-element buffer, so neither allocates.
func TestElementIOAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race: the instrumentation allocates")
	}
	lib, err := liberation.New(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(lib, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, a.Capacity())
	rng.Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	elem := make([]byte, a.ElemSize())
	off := a.Capacity()/4 + 9*a.ElemSize() // strip 1, row 2 of stripe 1
	if allocs := testing.AllocsPerRun(100, func() {
		if err := a.Read(off, elem); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("one-element Read: %v allocs, want 0", allocs)
	}
	if !bytes.Equal(elem, data[off:off+len(elem)]) {
		t.Fatal("one-element Read returned the wrong bytes")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		elem[0]++
		if err := a.Write(off, elem); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("one-element Write: %v allocs, want 0", allocs)
	}
	if a.Stats.SmallWrites != 101 || a.Stats.StripeEncodes != 4 {
		t.Errorf("writes took the wrong path: %+v", a.Stats)
	}
	if ok, err := lib.Verify(a.view(1)); err != nil || !ok {
		t.Errorf("parity inconsistent after small writes (ok=%v err=%v)", ok, err)
	}
}
