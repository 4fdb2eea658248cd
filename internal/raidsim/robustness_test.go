package raidsim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/liberation"
	"repro/internal/obs"
)

func allLayouts() []Layout {
	return []Layout{LeftSymmetric, RightAsymmetric, DedicatedParity}
}

func newLiberationArray(t *testing.T, layout Layout) *Array {
	t.Helper()
	lib, err := liberation.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(lib, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetLayout(layout); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWriteDegradedBothParityFailed exercises the hardest degraded-write
// case: for a chosen stripe, the two disks carrying its P and Q strips
// are both down, so the write can update no parity for that stripe at
// all. The data must still land, reads must stay correct throughout, and
// after rebuild the parity must be consistent again (a scrub finds
// nothing to repair).
func TestWriteDegradedBothParityFailed(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			a := newLiberationArray(t, layout)
			rng := rand.New(rand.NewSource(11))
			data := make([]byte, a.Capacity())
			rng.Read(data)
			if err := a.Write(0, data); err != nil {
				t.Fatal(err)
			}

			// Take down exactly the disks holding stripe 0's parity.
			pDisk := a.diskFor(0, a.k)
			qDisk := a.diskFor(0, a.k+1)
			for _, d := range []int{pDisk, qDisk} {
				if err := a.FailDisk(d); err != nil {
					t.Fatal(err)
				}
			}

			// Overwrite data spanning stripe 0 and into stripe 1.
			perStripe := a.k * a.w * a.ElemSize()
			patch := make([]byte, perStripe+perStripe/2)
			rng.Read(patch)
			if err := a.Write(0, patch); err != nil {
				t.Fatalf("degraded write with both parity strips failed: %v", err)
			}
			copy(data, patch)

			got := make([]byte, len(data))
			if err := a.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("degraded read after parity-less write returned wrong data")
			}

			if err := a.Rebuild(); err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			if err := a.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read after rebuild returned wrong data")
			}
			// Parity must be fully consistent again: nothing to scrub.
			results, err := a.Scrub()
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if len(results) != 0 {
				t.Errorf("scrub after rebuild found %d inconsistencies, want 0", len(results))
			}
		})
	}
}

// TestScrubRepairsCorruptionEveryLayout corrupts one strip per stripe on
// a single disk in every layout and checks that Scrub localizes and
// repairs each hit, that the data survives, and that the repairs are
// billed to the right per-disk counter.
func TestScrubRepairsCorruptionEveryLayout(t *testing.T) {
	for _, layout := range allLayouts() {
		t.Run(layout.String(), func(t *testing.T) {
			a := newLiberationArray(t, layout)
			reg := obs.NewRegistry()
			a.Instrument(reg)
			rng := rand.New(rand.NewSource(13))
			data := make([]byte, a.Capacity())
			rng.Read(data)
			if err := a.Write(0, data); err != nil {
				t.Fatal(err)
			}

			// Silently corrupt disk `victim` inside two different stripes —
			// one column per stripe, which CorrectColumn can localize.
			const victim = 2
			stripBytes := a.w * a.ElemSize()
			for _, stripe := range []int{0, 2} {
				if err := a.CorruptDisk(victim, stripe*stripBytes, 3, 0x5a); err != nil {
					t.Fatal(err)
				}
			}

			results, err := a.Scrub()
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if len(results) != 2 {
				t.Fatalf("scrub made %d repairs, want 2: %+v", len(results), results)
			}
			for _, r := range results {
				if r.Disk != victim || r.Strip < 0 {
					t.Errorf("repair %+v not localized to disk %d", r, victim)
				}
			}
			if got := a.Metrics().Counters["raid.scrub.repairs"]; got != 2 {
				t.Errorf("raid.scrub.repairs = %d, want 2", got)
			}

			// The corruption must be fully healed: contents intact and a
			// second scrub finds nothing.
			got := make([]byte, len(data))
			if err := a.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data corrupted after scrub repair")
			}
			again, err := a.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != 0 {
				t.Errorf("second scrub found %d issues, want 0", len(again))
			}
			if got := a.Metrics().Counters["raid.scrub.repairs"]; got != 2 {
				t.Errorf("raid.scrub.repairs moved on a clean scrub: %d, want still 2", got)
			}
		})
	}
}

// TestCorruptDiskValidation pins the corruption hook's argument checks
// so chaos drivers fail fast instead of corrupting the wrong disk.
func TestCorruptDiskValidation(t *testing.T) {
	a := newLiberationArray(t, LeftSymmetric)
	if err := a.CorruptDisk(-1, 0, 1, 0xff); err == nil {
		t.Error("negative disk accepted")
	}
	if err := a.CorruptDisk(0, -1, 1, 0xff); err == nil {
		t.Error("negative offset accepted")
	}
	if err := a.CorruptDisk(0, 0, 1<<30, 0xff); err == nil {
		t.Error("out-of-range length accepted")
	}
	if err := a.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	if err := a.CorruptDisk(3, 0, 1, 0xff); err == nil {
		t.Error("corrupting a failed disk accepted")
	}
}
