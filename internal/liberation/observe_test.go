package liberation

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// randomStripe builds a deterministic k+2-column stripe with random data.
func randomStripe(k, p, elemSize int, seed int64) *core.Stripe {
	s := core.NewStripe(k, p, elemSize)
	rng := rand.New(rand.NewSource(seed))
	for col := 0; col < k; col++ {
		rng.Read(s.Strips[col])
	}
	return s
}

// TestInstrumentedEncodeMatchesOps is the acceptance check that the span
// counters in Registry.Snapshot() agree bit-for-bit with the core.Ops
// accounting, and that the derived XORs-per-parity-element is exactly the
// paper's k-1 lower bound (Encode performs 2p(k-1) XORs over 2p parity
// elements).
func TestInstrumentedEncodeMatchesOps(t *testing.T) {
	for _, sh := range [][2]int{{5, 5}, {4, 7}, {10, 11}} {
		k, p := sh[0], sh[1]
		c, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c.Instrument(reg)

		const calls = 7
		var ops core.Ops
		s := randomStripe(k, p, 64, 1)
		for n := 0; n < calls; n++ {
			if err := c.Encode(s, &ops); err != nil {
				t.Fatal(err)
			}
		}

		snap := reg.Snapshot()
		st, ok := snap.Spans["liberation.encode"]
		if !ok {
			t.Fatalf("k=%d p=%d: no liberation.encode span in snapshot", k, p)
		}
		if st.Calls != calls {
			t.Errorf("k=%d p=%d: calls = %d, want %d", k, p, st.Calls, calls)
		}
		if st.XORs != ops.XORs {
			t.Errorf("k=%d p=%d: span XORs %d != ops.XORs %d", k, p, st.XORs, ops.XORs)
		}
		if st.Copies != ops.Copies {
			t.Errorf("k=%d p=%d: span Copies %d != ops.Copies %d", k, p, st.Copies, ops.Copies)
		}
		if want := uint64(calls * c.EncodeXORs()); st.XORs != want {
			t.Errorf("k=%d p=%d: span XORs %d, want %d calls x EncodeXORs", k, p, st.XORs, want)
		}
		if want := float64(k - 1); st.XORsPerUnit != want {
			t.Errorf("k=%d p=%d: XORsPerUnit = %v, want exactly k-1 = %v", k, p, st.XORsPerUnit, want)
		}
		if st.Bytes != uint64(calls*s.DataSize()) {
			t.Errorf("k=%d p=%d: span Bytes = %d, want %d", k, p, st.Bytes, calls*s.DataSize())
		}
		if st.Latency.Count != calls {
			t.Errorf("k=%d p=%d: latency count %d != %d", k, p, st.Latency.Count, calls)
		}
		if st.Latency.P50 <= 0 || st.Latency.P99 < st.Latency.P50 {
			t.Errorf("k=%d p=%d: implausible percentiles p50=%v p99=%v",
				k, p, st.Latency.P50, st.Latency.P99)
		}
		if st.BytesPerSec <= 0 {
			t.Errorf("k=%d p=%d: BytesPerSec = %v, want > 0", k, p, st.BytesPerSec)
		}
	}
}

// TestInstrumentedDecodeMatchesOps checks the decode span against the
// closed-form DecodeXORs count for a spread of erasure patterns, and that
// uninstrumented codes never touch a registry.
func TestInstrumentedDecodeMatchesOps(t *testing.T) {
	k, p := 5, 5
	c, err := New(k, p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)

	patterns := [][]int{{1, 3}, {0, 4}, {2, k}, {k, k + 1}, {0}}
	wantXORs := uint64(0)
	var ops core.Ops
	for _, erased := range patterns {
		s := randomStripe(k, p, 32, 42)
		if err := c.encodeFull(s, nil); err != nil {
			t.Fatal(err)
		}
		golden := s.Clone()
		for _, col := range erased {
			s.ZeroStrip(col)
		}
		if err := c.Decode(s, erased, &ops); err != nil {
			t.Fatalf("decode %v: %v", erased, err)
		}
		if !s.Equal(golden) {
			t.Fatalf("decode %v: stripe mismatch", erased)
		}
		n, err := c.DecodeXORs(erased)
		if err != nil {
			t.Fatal(err)
		}
		wantXORs += uint64(n)
	}

	st := reg.Snapshot().Spans["liberation.decode"]
	if st.Calls != uint64(len(patterns)) {
		t.Errorf("decode calls = %d, want %d", st.Calls, len(patterns))
	}
	if st.XORs != ops.XORs {
		t.Errorf("span XORs %d != ops.XORs %d", st.XORs, ops.XORs)
	}
	if st.XORs != wantXORs {
		t.Errorf("span XORs %d != sum of DecodeXORs %d", st.XORs, wantXORs)
	}
	if st.Errors != 0 {
		t.Errorf("unexpected decode errors counter: %d", st.Errors)
	}
}

// TestInstrumentedUpdateAndCorrect exercises the two remaining spans.
func TestInstrumentedUpdateAndCorrect(t *testing.T) {
	k, p := 4, 5
	c, err := New(k, p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	if c.Registry() != reg {
		t.Fatal("Registry() should return the instrumented sink")
	}

	s := randomStripe(k, p, 16, 7)
	var ops core.Ops
	if err := c.Encode(s, &ops); err != nil {
		t.Fatal(err)
	}

	old := append([]byte(nil), s.Elem(1, 2)...)
	s.Elem(1, 2)[0] ^= 0xff
	touched, err := c.Update(s, 1, 2, old, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if touched == 0 {
		t.Fatal("update should touch parity elements")
	}

	s.Elem(2, 0)[0] ^= 0x55 // silent corruption
	col, err := c.CorrectColumn(s, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if col != 2 {
		t.Fatalf("corrected column %d, want 2", col)
	}

	snap := reg.Snapshot()
	up := snap.Spans["liberation.update"]
	if up.Calls != 1 || up.Units != uint64(touched) {
		t.Errorf("update span calls=%d units=%d, want 1/%d", up.Calls, up.Units, touched)
	}
	cor := snap.Spans["liberation.correct"]
	if cor.Calls != 1 || cor.XORs == 0 {
		t.Errorf("correct span calls=%d xors=%d, want 1 call with XOR work", cor.Calls, cor.XORs)
	}
}

// TestTraceDecode checks the Algorithm 2-4 trace: the zig-zag makes
// exactly p iterations (Algorithm 4 retrieves two elements per step over
// p rows), the traced XOR count equals the executable schedule's, and
// the total stays within the paper's near-optimal envelope — at most the
// 2p(k-1) encoding bound plus one extra XOR per computed syndrome.
func TestTraceDecode(t *testing.T) {
	for _, sh := range [][2]int{{3, 3}, {5, 5}, {5, 7}, {8, 11}, {13, 13}} {
		k, p := sh[0], sh[1]
		c, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < k; l++ {
			for r := l + 1; r < k; r++ {
				tr, err := c.TraceDecode(l, r)
				if err != nil {
					t.Fatalf("k=%d p=%d (%d,%d): %v", k, p, l, r, err)
				}
				// L and R record the orientation Algorithm 2 actually
				// chose; Swapped says whether it flipped the canonical pair.
				lo, hi := tr.L, tr.R
				if lo > hi {
					lo, hi = hi, lo
				}
				if tr.K != k || tr.P != p || lo != l || hi != r {
					t.Fatalf("k=%d p=%d (%d,%d): trace header K=%d P=%d L=%d R=%d",
						k, p, l, r, tr.K, tr.P, tr.L, tr.R)
				}
				if tr.Swapped != (tr.L != l) {
					t.Errorf("k=%d p=%d (%d,%d): Swapped=%v inconsistent with L=%d",
						k, p, l, r, tr.Swapped, tr.L)
				}
				if len(tr.Steps) != p {
					t.Errorf("k=%d p=%d (%d,%d): %d zig-zag steps, want p=%d",
						k, p, l, r, len(tr.Steps), p)
				}
				want, err := c.DecodeXORs([]int{l, r})
				if err != nil {
					t.Fatal(err)
				}
				if tr.XORs != want {
					t.Errorf("k=%d p=%d (%d,%d): trace XORs %d != DecodeXORs %d",
						k, p, l, r, tr.XORs, want)
				}
				if bound := 2*p*(k-1) + tr.RowSyndromes + tr.DiagSyndromes; tr.XORs > bound {
					t.Errorf("k=%d p=%d (%d,%d): %d XORs exceeds near-optimal bound %d",
						k, p, l, r, tr.XORs, bound)
				}
				if tr.RowSyndromes == 0 || tr.DiagSyndromes == 0 {
					t.Errorf("k=%d p=%d (%d,%d): syndrome sets not recorded", k, p, l, r)
				}
				// Algorithm 3 reuses exactly the common expressions whose
				// pair of columns survives.
				wantReuse := 0
				for j := 1; j < k; j++ {
					if l != j-1 && l != j && r != j-1 && r != j {
						wantReuse++
					}
				}
				if tr.CommonReuse != wantReuse {
					t.Errorf("k=%d p=%d (%d,%d): CommonReuse=%d, want %d",
						k, p, l, r, tr.CommonReuse, wantReuse)
				}
			}
		}
	}
}

// TestTraceDecodeP5Case pins the paper's worked p=5 example: decoding
// data pair (1,3) costs 41 XORs, 1.025x the 40-XOR encoding bound, and
// the trace shows at least one common-expression reuse.
func TestTraceDecodeP5Case(t *testing.T) {
	c, err := New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.TraceDecode(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.XORs != 41 {
		t.Errorf("p=5 (1,3): %d XORs, want 41", tr.XORs)
	}
	if len(tr.Steps) != 5 {
		t.Errorf("p=5 (1,3): %d steps, want 5", len(tr.Steps))
	}
	// Erasing (1,3) touches every adjacent-column pair of k=5, so no
	// common expression survives to reuse; pair (0,4) leaves two.
	if tr.CommonReuse != 0 {
		t.Errorf("p=5 (1,3): CommonReuse=%d, want 0", tr.CommonReuse)
	}
	if tr2, err := c.TraceDecode(0, 4); err != nil {
		t.Fatal(err)
	} else if tr2.CommonReuse != 2 {
		t.Errorf("p=5 (0,4): CommonReuse=%d, want 2", tr2.CommonReuse)
	}
	if s := tr.String(); s == "" || s == "decode-trace(nil)" {
		t.Errorf("trace String() = %q", s)
	}

	if _, err := c.TraceDecode(1, 1); err == nil {
		t.Error("TraceDecode(1,1) should reject a degenerate pair")
	}
	if _, err := c.TraceDecode(-1, 2); err == nil {
		t.Error("TraceDecode(-1,2) should reject out-of-range columns")
	}
}
