// Package evenodd implements the EVENODD codes (Blaum, Brady, Bruck,
// Menon, IEEE ToC 1995), one of the two baseline RAID-6 array codes the
// paper compares XOR complexities against (Figures 5-8, Table I).
//
// An EVENODD codeword is a (p-1) x (p+2) array of bits, p an odd prime,
// with an imaginary all-zero row p-1. The P column holds plain row
// parities. The Q column holds diagonal parities adjusted by the
// "missing diagonal" sum S:
//
//	P[i] = XOR_j b[i][j]
//	S    = XOR of the bits on diagonal p-1 ({(x,y): x+y = p-1 mod p})
//	Q[i] = S ^ XOR of the bits on diagonal i
//
// Every data bit lies on one row and one diagonal; bits on the missing
// diagonal additionally appear (through S) in every Q bit, which is what
// drives EVENODD's ~3 update complexity and its ~k-1/2 encoding cost.
package evenodd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Code is an EVENODD code instance with k data strips over a
// (p-1) x (p+2) array.
type Code struct {
	k int
	p int

	obs *obs.Registry // optional metrics sink (see Instrument)
}

// New returns the EVENODD code with k data strips and prime parameter p.
// Requires p an odd prime and 1 <= k <= p.
func New(k, p int) (*Code, error) {
	if !core.IsPrime(p) || p == 2 {
		return nil, fmt.Errorf("%w: p=%d is not an odd prime", core.ErrParams, p)
	}
	if k < 1 || k > p {
		return nil, fmt.Errorf("%w: need 1 <= k <= p, got k=%d p=%d", core.ErrParams, k, p)
	}
	return &Code{k: k, p: p}, nil
}

// NewAuto returns the EVENODD code with the smallest usable prime >= k.
func NewAuto(k int) (*Code, error) {
	return New(k, core.NextOddPrime(maxInt(k, 2)))
}

func (c *Code) Name() string { return fmt.Sprintf("evenodd(k=%d,p=%d)", c.k, c.p) }
func (c *Code) K() int       { return c.k }

// M returns 2: EVENODD is a RAID-6 (two-parity) code.
func (c *Code) M() int { return 2 }

// P returns the prime parameter.
func (c *Code) P() int { return c.p }

// W returns the column height, p-1 for EVENODD.
func (c *Code) W() int { return c.p - 1 }

func (c *Code) mod(x int) int { return core.Mod(x, c.p) }

// elem returns the element at (row, col), or nil for the imaginary row.
func (c *Code) elem(s *core.Stripe, col, row int) []byte {
	if row == c.p-1 {
		return nil
	}
	return s.Elem(col, row)
}

// Encode computes P and Q. The diagonal sums are accumulated per
// constraint and S is folded into each Q element, which reproduces the
// ~(2k-1)/2 XORs-per-parity-bit cost of the published construction.
func (c *Code) Encode(s *core.Stripe, ops *core.Ops) error {
	return obs.Observed(c.obs, "evenodd.encode", s.DataSize(), 2*(c.p-1), ops,
		func(o *core.Ops) error { return c.encode(s, o) })
}

func (c *Code) encode(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p-1); err != nil {
		return err
	}
	p, k := c.p, c.k
	// Row parities, batched through the fused kernels (same XOR count,
	// one pass over pe per four sources).
	for i := 0; i < p-1; i++ {
		pe := s.Elem(k, i)
		ops.Copy(pe, s.Elem(0, i))
		j := 1
		for ; j+4 <= k; j += 4 {
			ops.XorInto4(pe, s.Elem(j, i), s.Elem(j+1, i), s.Elem(j+2, i), s.Elem(j+3, i))
		}
		switch k - j {
		case 3:
			ops.XorInto3(pe, s.Elem(j, i), s.Elem(j+1, i), s.Elem(j+2, i))
		case 2:
			ops.XorInto2(pe, s.Elem(j, i), s.Elem(j+1, i))
		case 1:
			ops.XorInto(pe, s.Elem(j, i))
		}
	}
	// Diagonal sums D[d] accumulated into the Q strip (D[d] at row d for
	// d <= p-2) and S = D[p-1] into scratch.
	accQ := make([]bool, p-1)
	sElem := make([]byte, s.ElemSize)
	accS := false
	for j := 0; j < k; j++ {
		for i := 0; i < p-1; i++ {
			d := c.mod(i + j)
			if d == p-1 {
				if accS {
					ops.XorInto(sElem, s.Elem(j, i))
				} else {
					ops.Copy(sElem, s.Elem(j, i))
					accS = true
				}
				continue
			}
			if accQ[d] {
				ops.XorInto(s.Elem(k+1, d), s.Elem(j, i))
			} else {
				ops.Copy(s.Elem(k+1, d), s.Elem(j, i))
				accQ[d] = true
			}
		}
	}
	// Q[i] = D[i] ^ S. (S is zero when k == 1: diagonal p-1 then has no
	// real cells, and neither do some D[d]; handle the degenerate cases.)
	for i := 0; i < p-1; i++ {
		qe := s.Elem(k+1, i)
		switch {
		case accQ[i] && accS:
			ops.XorInto(qe, sElem)
		case !accQ[i] && accS:
			ops.Copy(qe, sElem)
		case !accQ[i] && !accS:
			ops.Zero(qe)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
