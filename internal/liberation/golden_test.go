package liberation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestGoldenParitiesP3 pins the exact parity bytes of a hand-computed
// p=3, k=3 codeword with 1-byte elements. Data columns (by rows 0..2):
//
//	col0 = [a0 a1 a2] = [0x01 0x02 0x04]
//	col1 = [b0 b1 b2] = [0x08 0x10 0x20]
//	col2 = [c0 c1 c2] = [0x40 0x80 0xff]
//
// Row parity: P[i] = a_i ^ b_i ^ c_i.
// Anti-diagonals (x - y = i mod 3) plus extras a_1 = b[<-2>][<-2>] =
// b[1][1], a_2 = b[<-3>][<-4>] = b[0][2]:
//
//	Q[0] = a0 ^ b1 ^ c2
//	Q[1] = a1 ^ b2 ^ c0 ^ b[1][1](=0x10)
//	Q[2] = a2 ^ b0 ^ c1 ^ b[0][2](=0x40)
func TestGoldenParitiesP3(t *testing.T) {
	c, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStripe(3, 3, 1)
	data := [3][3]byte{ // [col][row]
		{0x01, 0x02, 0x04},
		{0x08, 0x10, 0x20},
		{0x40, 0x80, 0xff},
	}
	for col := range data {
		for row, v := range data[col] {
			s.Elem(col, row)[0] = v
		}
	}
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	wantP := [3]byte{0x01 ^ 0x08 ^ 0x40, 0x02 ^ 0x10 ^ 0x80, 0x04 ^ 0x20 ^ 0xff}
	wantQ := [3]byte{
		0x01 ^ 0x10 ^ 0xff,
		0x02 ^ 0x20 ^ 0x40 ^ 0x10,
		0x04 ^ 0x08 ^ 0x80 ^ 0x40,
	}
	for i := 0; i < 3; i++ {
		if got := s.Elem(3, i)[0]; got != wantP[i] {
			t.Errorf("P[%d] = %#02x, want %#02x", i, got, wantP[i])
		}
		if got := s.Elem(4, i)[0]; got != wantQ[i] {
			t.Errorf("Q[%d] = %#02x, want %#02x", i, got, wantQ[i])
		}
	}
}

// TestDecodeXORsGolden pins the exact element XOR count DecodeXORs
// reports for every erasure pair at three shapes, as the bench gate pins
// 154/163/193, so any change to the decoder shows up as a diff. Pairs
// are in core.ErasurePairs order: (0,1), (0,2), ..., (k,k+1). It also
// pins each erasure class's average over the 2p(k-1) lower bound (the
// k-1 XORs per bit of Figures 7 and 8): data+data pairs pay Algorithm
// 2's starting-point sum, data+parity pairs re-encode the lost parity.
func TestDecodeXORsGolden(t *testing.T) {
	for _, tc := range []struct {
		k, p  int
		xors  []int
		class [4]float64 // data+data, data+P, data+Q, P+Q
	}{
		{4, 5, []int{
			30, 33, 31, 33, 33,
			30, 31, 33, 33,
			30, 33, 33,
			33, 33,
			30,
		}, [4]float64{1.0278, 1.1000, 1.1000, 1.0000}},
		{8, 11, []int{
			154, 163, 159, 157, 169, 155, 167, 161, 161,
			154, 161, 159, 157, 155, 155, 161, 161,
			154, 161, 159, 157, 155, 161, 161,
			154, 161, 159, 157, 161, 161,
			154, 161, 159, 161, 161,
			154, 161, 161, 161,
			154, 161, 161,
			161, 161,
			154,
		}, [4]float64{1.0262, 1.0455, 1.0455, 1.0000}},
		{4, 31, []int{
			186, 215, 225, 189, 189,
			186, 213, 189, 189,
			186, 189, 189,
			189, 189,
			186,
		}, [4]float64{1.0851, 1.0161, 1.0161, 1.0000}},
	} {
		c, err := New(tc.k, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		pairs := core.ErasurePairs(tc.k + 2)
		if len(pairs) != len(tc.xors) {
			t.Fatalf("k=%d p=%d: table has %d counts for %d pairs", tc.k, tc.p, len(tc.xors), len(pairs))
		}
		var sum, cnt [4]int
		for i, pat := range pairs {
			n, err := c.DecodeXORs(pat[:])
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.xors[i] {
				t.Errorf("k=%d p=%d erase %v: %d XORs, want %d", tc.k, tc.p, pat, n, tc.xors[i])
			}
			class := 0 // data+data
			switch {
			case pat[0] == tc.k:
				class = 3 // P+Q
			case pat[1] == tc.k:
				class = 1 // data+P
			case pat[1] == tc.k+1:
				class = 2 // data+Q
			}
			sum[class] += n
			cnt[class]++
		}
		bound := float64(2 * tc.p * (tc.k - 1))
		for class, name := range []string{"data+data", "data+P", "data+Q", "P+Q"} {
			got := float64(sum[class]) / float64(cnt[class]) / bound
			if math.Abs(got-tc.class[class]) > 5e-5 {
				t.Errorf("k=%d p=%d %s: average %.4f of the bound, want %.4f",
					tc.k, tc.p, name, got, tc.class[class])
			}
		}
	}
}

// FuzzDecode feeds arbitrary data bytes and erasure choices through an
// encode/erase/decode round trip on a fixed shape. `go test` runs the
// seed corpus; `go test -fuzz=FuzzDecode` explores further.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(6))
	f.Add([]byte("liberation codes"), uint8(5), uint8(5))
	c, err := New(5, 5)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, e1, e2 uint8) {
		s := core.NewStripe(5, 5, 4)
		for i := 0; i < len(data) && i < s.DataSize(); i++ {
			s.Strips[i/(5*4)][i%(5*4)] = data[i]
		}
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		orig := s.Clone()
		a, b := int(e1)%7, int(e2)%7
		erased := []int{a}
		if b != a {
			erased = append(erased, b)
		}
		for _, e := range erased {
			for i := range s.Strips[e] {
				s.Strips[e][i] = 0xcc
			}
		}
		if err := c.Decode(s, erased, nil); err != nil {
			t.Fatal(err)
		}
		if !s.Equal(orig) {
			t.Fatalf("decode(%v) did not restore the stripe", erased)
		}
	})
}

// FuzzCorrectColumn checks that the scrubber either repairs a single
// corrupted strip exactly or reports an error — never silently produces a
// stripe that differs from the original.
func FuzzCorrectColumn(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{0xff})
	f.Add(uint8(4), uint8(3), []byte{1, 2, 3})
	c, err := New(4, 5)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, colRaw, offRaw uint8, noise []byte) {
		if len(noise) == 0 {
			return
		}
		s := core.NewStripe(4, 5, 4)
		s.FillRandom(rand.New(rand.NewSource(int64(colRaw)*256 + int64(offRaw))))
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		orig := s.Clone()
		col := int(colRaw) % 6
		strip := s.Strips[col]
		off := int(offRaw) % len(strip)
		changed := false
		for i, b := range noise {
			if b != 0 && off+i < len(strip) {
				strip[off+i] ^= b
				changed = true
			}
		}
		fixed, err := c.CorrectColumn(s, nil)
		if err != nil {
			return // ambiguous is acceptable; silence is not
		}
		if !changed {
			if fixed != core.CleanColumn {
				t.Fatalf("clean stripe 'repaired' at column %d", fixed)
			}
			return
		}
		if fixed != col {
			t.Fatalf("corruption in %d attributed to %d", col, fixed)
		}
		if !s.Equal(orig) {
			t.Fatal("repair did not restore the stripe")
		}
	})
}
