// Package rdp implements the Row-Diagonal Parity codes (Corbett et al.,
// FAST'04), the second baseline RAID-6 array code in the paper's XOR
// complexity comparison (Figures 5-8, Table I).
//
// An RDP codeword is a (p-1) x (p+1) array, p prime: columns 0..p-2 carry
// data (phantom zeros beyond k), column p-1 is the row parity P, and the
// diagonal parity Q covers the data *and* P columns:
//
//	P[i] = XOR_j b[i][j]
//	Q[d] = XOR of the cells on diagonal d = {(x,y): x+y = d mod p},
//	       y ranging over data columns and the P column, for d != p-1.
//
// Because Q protects P, RDP reaches the k-1 encoding lower bound when
// k = p-1, and a (data, P) double erasure decodes with the very same
// zigzag as a (data, data) erasure.
package rdp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Code is an RDP code instance with k data strips over a (p-1) x (p+1)
// array (plus the Q strip).
type Code struct {
	k int
	p int

	obs *obs.Registry // optional metrics sink (see Instrument)
}

// New returns the RDP code with k data strips and prime parameter p.
// Requires p an odd prime and 1 <= k <= p-1.
func New(k, p int) (*Code, error) {
	if !core.IsPrime(p) || p == 2 {
		return nil, fmt.Errorf("%w: p=%d is not an odd prime", core.ErrParams, p)
	}
	if k < 1 || k > p-1 {
		return nil, fmt.Errorf("%w: need 1 <= k <= p-1, got k=%d p=%d", core.ErrParams, k, p)
	}
	return &Code{k: k, p: p}, nil
}

// NewAuto returns the RDP code with the smallest usable prime (p >= k+1,
// the paper's "p varying with k" configuration for RDP).
func NewAuto(k int) (*Code, error) {
	p := core.NextOddPrime(k + 1)
	return New(k, p)
}

func (c *Code) Name() string { return fmt.Sprintf("rdp(k=%d,p=%d)", c.k, c.p) }
func (c *Code) K() int       { return c.k }

// M returns 2: RDP is a RAID-6 (two-parity) code.
func (c *Code) M() int { return 2 }

// P returns the prime parameter.
func (c *Code) P() int { return c.p }

// W returns the column height, p-1 for RDP.
func (c *Code) W() int { return c.p - 1 }

func (c *Code) mod(x int) int { return core.Mod(x, c.p) }

// mathStrip maps a math-array column (0..p-1) to a strip index, or -1 for
// phantom columns. Math column p-1 is the P strip.
func (c *Code) mathStrip(y int) int {
	switch {
	case y < c.k:
		return y
	case y == c.p-1:
		return c.k
	default:
		return -1
	}
}

// Encode computes P (row sums over data) and then Q (diagonal sums over
// data and P).
func (c *Code) Encode(s *core.Stripe, ops *core.Ops) error {
	return obs.Observed(c.obs, "rdp.encode", s.DataSize(), 2*(c.p-1), ops,
		func(o *core.Ops) error { return c.encode(s, o) })
}

func (c *Code) encode(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, c.p-1); err != nil {
		return err
	}
	if err := c.encodeP(s, ops); err != nil {
		return err
	}
	return c.encodeQ(s, ops)
}

func (c *Code) encodeP(s *core.Stripe, ops *core.Ops) error {
	for i := 0; i < c.p-1; i++ {
		pe := s.Elem(c.k, i)
		ops.Copy(pe, s.Elem(0, i))
		j := 1
		for ; j+4 <= c.k; j += 4 {
			ops.XorInto4(pe, s.Elem(j, i), s.Elem(j+1, i), s.Elem(j+2, i), s.Elem(j+3, i))
		}
		switch c.k - j {
		case 3:
			ops.XorInto3(pe, s.Elem(j, i), s.Elem(j+1, i), s.Elem(j+2, i))
		case 2:
			ops.XorInto2(pe, s.Elem(j, i), s.Elem(j+1, i))
		case 1:
			ops.XorInto(pe, s.Elem(j, i))
		}
	}
	return nil
}

// encodeQ computes the diagonal parity from the data and P strips. The
// per-diagonal contributions are gathered into batches of four and run
// through the fused kernels, so qe crosses the cache once per four
// accumulations; the counted XORs are identical to the one-at-a-time
// loop.
func (c *Code) encodeQ(s *core.Stripe, ops *core.Ops) error {
	p, k := c.p, c.k
	for d := 0; d < p-1; d++ {
		qe := s.Elem(k+1, d)
		acc := false
		var buf [4][]byte
		nb := 0
		flush := func() {
			switch nb {
			case 4:
				ops.XorInto4(qe, buf[0], buf[1], buf[2], buf[3])
			case 3:
				ops.XorInto3(qe, buf[0], buf[1], buf[2])
			case 2:
				ops.XorInto2(qe, buf[0], buf[1])
			case 1:
				ops.XorInto(qe, buf[0])
			}
			nb = 0
		}
		add := func(col, row int) {
			if !acc {
				ops.Copy(qe, s.Elem(col, row))
				acc = true
				return
			}
			buf[nb] = s.Elem(col, row)
			nb++
			if nb == 4 {
				flush()
			}
		}
		for j := 0; j < k; j++ {
			if row := c.mod(d - j); row != p-1 {
				add(j, row)
			}
		}
		if row := c.mod(d + 1); row != p-1 {
			add(k, row) // the P-column cell of diagonal d
		}
		flush()
		if !acc {
			ops.Zero(qe)
		}
	}
	return nil
}
