package raidsim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codes"
)

// TestModelBasedRandomOps runs long random operation sequences against
// the array and a plain byte-slice model in lockstep, for every
// registered code family at its smallest test shape: writes of random
// sizes/offsets, reads, disk failures (up to the family's m), rebuilds,
// silent corruption plus scrubs. At every read the array must agree with
// the model byte for byte — a stateful property test of the whole system,
// covering the incremental-update and the re-encode small-write paths and
// degraded I/O under as many failures as each family tolerates.
func TestModelBasedRandomOps(t *testing.T) {
	for _, info := range codes.All() {
		t.Run(info.Name, func(t *testing.T) {
			atMaxFailures := 0
			for _, seed := range []int64{1, 2, 3} {
				atMaxFailures += modelRun(t, info, seed)
			}
			if atMaxFailures == 0 {
				t.Errorf("no read or write ran with %d disks failed", info.M)
			}
		})
	}
}

// modelRun plays one seeded sequence and returns how many of its reads
// and writes ran with the family's full m disks failed.
func modelRun(t *testing.T, info *codes.Info, seed int64) (atMaxFailures int) {
	sh := info.TestShapes[0]
	code, err := info.New(sh.K, sh.P)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(code, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	model := make([]byte, a.Capacity())

	// Initial fill.
	rng.Read(model)
	if err := a.Write(0, model); err != nil {
		t.Fatal(err)
	}

	checkRead := func() {
		t.Helper()
		if a.numFailed() == a.m {
			atMaxFailures++
		}
		off := rng.Intn(a.Capacity())
		n := 1 + rng.Intn(a.Capacity()-off)
		got := make([]byte, n)
		if err := a.Read(off, got); err != nil {
			t.Fatalf("seed %d: read(%d,%d): %v", seed, off, n, err)
		}
		if !bytes.Equal(got, model[off:off+n]) {
			t.Fatalf("seed %d: read(%d,%d) diverges from model", seed, off, n)
		}
	}

	for op := 0; op < 300; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // write
			off := rng.Intn(a.Capacity())
			n := 1 + rng.Intn(min(500, a.Capacity()-off))
			buf := make([]byte, n)
			rng.Read(buf)
			if err := a.Write(off, buf); err != nil {
				t.Fatalf("seed %d op %d: write: %v", seed, op, err)
			}
			copy(model[off:], buf)
			if a.numFailed() == a.m {
				atMaxFailures++
			}
		case 4, 5, 6: // read
			checkRead()
		case 7: // fail a disk (if capacity for failure remains)
			d := rng.Intn(a.NumDisks())
			err := a.FailDisk(d)
			if err != nil && err != ErrTooManyFailures {
				t.Fatalf("seed %d: fail disk: %v", seed, err)
			}
		case 8: // rebuild everything
			if err := a.Rebuild(); err != nil {
				t.Fatalf("seed %d: rebuild: %v", seed, err)
			}
		case 9: // silent corruption + scrub (healthy arrays only)
			if a.numFailed() > 0 {
				continue
			}
			d := rng.Intn(a.NumDisks())
			off := rng.Intn(len(a.disks[d]) - 4)
			if err := a.CorruptDisk(d, off, 4, 0x99); err != nil {
				t.Fatalf("seed %d: corrupt: %v", seed, err)
			}
			res, err := a.Scrub()
			if err != nil {
				t.Fatalf("seed %d: scrub: %v", seed, err)
			}
			if a.corrector == nil {
				// Detect-only scrubbing must flag the damage; flipping
				// the same bits back undoes it.
				if len(res) == 0 {
					t.Fatalf("seed %d: scrub missed corruption of disk %d at %d", seed, d, off)
				}
				if err := a.CorruptDisk(d, off, 4, 0x99); err != nil {
					t.Fatalf("seed %d: uncorrupt: %v", seed, err)
				}
			}
			checkRead()
		}
	}
	// Final integrity pass.
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	full := make([]byte, a.Capacity())
	if err := a.Read(0, full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, model) {
		t.Fatalf("seed %d: final state diverges from model", seed)
	}
	return atMaxFailures
}
