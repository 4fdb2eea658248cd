package liberation

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestUpdateMatchesReencode(t *testing.T) {
	for _, sh := range [][2]int{{3, 5}, {5, 5}, {7, 11}, {4, 13}} {
		k, p := sh[0], sh[1]
		c, _ := New(k, p)
		rng := rand.New(rand.NewSource(int64(k + p)))
		s := core.NewStripe(k, p, 16)
		s.FillRandom(rng)
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			col := rng.Intn(k)
			row := rng.Intn(p)
			old := append([]byte(nil), s.Elem(col, row)...)
			rng.Read(s.Elem(col, row))
			if _, err := c.Update(s, col, row, old, nil); err != nil {
				t.Fatal(err)
			}
			if ok, err := c.Verify(s); err != nil || !ok {
				t.Fatalf("k=%d p=%d trial %d: parities wrong after update (err=%v)",
					k, p, trial, err)
			}
		}
	}
}

func TestUpdateComplexityAttainsBound(t *testing.T) {
	// Every element updates exactly 2 parity elements except the k-1
	// extra elements (one per column j >= 1), which update 3: total
	// memberships 2kp + (k-1).
	k, p := 7, 7
	c, _ := New(k, p)
	s := core.NewStripe(k, p, 8)
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	total := 0
	for col := 0; col < k; col++ {
		for row := 0; row < p; row++ {
			old := append([]byte(nil), s.Elem(col, row)...)
			s.Elem(col, row)[0] ^= 0xff
			n, err := c.Update(s, col, row, old, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 && n != 3 {
				t.Fatalf("update at (%d,%d) touched %d parities", col, row, n)
			}
			total += n
		}
	}
	if want := 2*k*p + (k - 1); total != want {
		t.Errorf("total parity updates %d, want %d", total, want)
	}
}

func TestUpdateNoChange(t *testing.T) {
	c, _ := New(3, 5)
	s := core.NewStripe(3, 5, 8)
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), s.Elem(1, 2)...)
	n, err := c.Update(s, 1, 2, old, nil)
	if err != nil || n != 0 {
		t.Errorf("no-op update touched %d parities (err=%v)", n, err)
	}
	if _, err := c.Update(s, 5, 0, old, nil); err == nil {
		t.Error("accepted out-of-range column")
	}
	if _, err := c.Update(s, 0, 0, old[:4], nil); err == nil {
		t.Error("accepted wrong-size old element")
	}
}

func TestCorrectColumn(t *testing.T) {
	for _, sh := range [][2]int{{3, 5}, {5, 5}, {7, 7}, {5, 11}} {
		k, p := sh[0], sh[1]
		c, _ := New(k, p)
		rng := rand.New(rand.NewSource(int64(7*k + p)))
		clean := core.NewStripe(k, p, 16)
		clean.FillRandom(rng)
		if err := c.Encode(clean, nil); err != nil {
			t.Fatal(err)
		}
		// Clean stripe: nothing to fix.
		s := clean.Clone()
		got, err := c.CorrectColumn(s, nil)
		if err != nil || got != core.CleanColumn {
			t.Fatalf("clean stripe: got %d, %v", got, err)
		}
		// Corrupt each strip (data, P, Q) in turn.
		for col := 0; col < k+2; col++ {
			s := clean.Clone()
			// Flip a few bytes spread over the strip.
			for _, off := range []int{0, len(s.Strips[col]) / 2, len(s.Strips[col]) - 1} {
				s.Strips[col][off] ^= 0x5a
			}
			got, err := c.CorrectColumn(s, nil)
			if err != nil {
				t.Fatalf("k=%d p=%d col=%d: %v", k, p, col, err)
			}
			if got != col {
				t.Errorf("k=%d p=%d: corruption in %d attributed to %d", k, p, col, got)
			}
			if !s.Equal(clean) {
				t.Errorf("k=%d p=%d col=%d: repair incomplete", k, p, col)
			}
		}
		// Two corrupted strips must be refused, not silently "repaired"
		// (with distinct error patterns; identical errors at identical
		// offsets cancel in dP and are beyond any single-column
		// corrector's distance).
		s = clean.Clone()
		s.Strips[0][0] ^= 0x5a
		s.Strips[1][s.ElemSize] ^= 0x33
		if _, err := c.CorrectColumn(s, nil); err == nil {
			t.Errorf("k=%d p=%d: two-column corruption not rejected", k, p)
		}
	}
}

func TestRecoverElement(t *testing.T) {
	c, _ := New(6, 7)
	s := core.NewStripe(6, 7, 16)
	s.FillRandom(rand.New(rand.NewSource(21)))
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 16)
	for col := 0; col < 6; col++ {
		for row := 0; row < 7; row++ {
			var ops core.Ops
			if err := c.RecoverElement(dst, s, col, row, &ops); err != nil {
				t.Fatal(err)
			}
			if string(dst) != string(s.Elem(col, row)) {
				t.Fatalf("element (%d,%d) recovered wrong", col, row)
			}
			if ops.XORs != 5 {
				t.Fatalf("element recovery used %d XORs, want k-1=5", ops.XORs)
			}
		}
	}
	if err := c.RecoverElement(dst, s, 6, 0, nil); err == nil {
		t.Error("parity column accepted")
	}
	if err := c.RecoverElement(dst[:3], s, 0, 0, nil); err == nil {
		t.Error("short dst accepted")
	}
}
