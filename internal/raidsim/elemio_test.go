package raidsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/liberation"
	"repro/internal/obs"
)

// TestElementIOAllocatesNothing pins the in-place element I/O paths: on a
// healthy array a one-element Read copies straight from its strip and a
// one-element Write patches parity through the array's own old-element
// buffer, so neither allocates. That holds instrumented too: the array's
// and the code's spans and event counters are handles resolved by
// Instrument, so recording them builds no metric name and allocates
// nothing.
func TestElementIOAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race: the instrumentation allocates")
	}
	for _, instrumented := range []bool{false, true} {
		t.Run(fmt.Sprintf("instrumented=%v", instrumented), func(t *testing.T) {
			lib, err := liberation.New(5, 7)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(lib, 64, 4)
			if err != nil {
				t.Fatal(err)
			}
			var reg *obs.Registry
			if instrumented {
				reg = newTestRegistry(a)
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
			if instrumented {
				s := reg.Snapshot()
				if s.Spans["raid.read"].Calls != 101 || s.Spans["raid.write"].Calls != 102 ||
					s.Spans["liberation.update"].Calls != 101 {
					t.Errorf("spans did not record every call: %+v", s.Spans)
				}
			}
		})
	}
}

// BenchmarkElementIO times a one-element Read and Write on a liberation
// k=8, p=11 array with 4 KiB elements (the end-to-end benchmark's
// array-zipf shape, over fewer stripes), bare and instrumented: the
// difference is what the array's and the code's spans cost.
func BenchmarkElementIO(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		lib, err := liberation.New(8, 11)
		if err != nil {
			b.Fatal(err)
		}
		a, err := New(lib, 4096, 8)
		if err != nil {
			b.Fatal(err)
		}
		if instrumented {
			a.Instrument(obs.NewRegistry())
		}
		elem := make([]byte, a.ElemSize())
		off := a.Capacity()/2 + 13*a.ElemSize()
		b.Run(fmt.Sprintf("read/instrumented=%v", instrumented), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := a.Read(off, elem); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("write/instrumented=%v", instrumented), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				elem[0]++
				if err := a.Write(off, elem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
