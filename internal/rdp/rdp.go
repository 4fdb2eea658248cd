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

	obs.CodeSpans // nil until Instrument
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

// Instrument attaches a metrics registry to the code: from then on every
// Encode, Decode and Update records a span — latency, bytes processed,
// work units, and the exact core.Ops element counts — under the span
// names rdp.encode, rdp.decode and rdp.update. The span
// families are resolved here, once, so a span costs two monotonic clock
// reads and one atomic add per metric, with no lock or allocation: about
// 0.2 µs on a 2-vCPU Xeon (obs's BenchmarkSpan). A nil registry
// detaches.
func (c *Code) Instrument(reg *obs.Registry) {
	c.CodeSpans = obs.CodeSpans{
		EncodeSpan: reg.Family("rdp.encode"),
		DecodeSpan: reg.Family("rdp.decode"),
		UpdateSpan: reg.Family("rdp.update"),
	}
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
	sp := c.EncodeSpan.Start()
	err := c.encode(s, sp.Count(ops))
	sp.Bytes(s.DataSize()).Units(2*(c.p-1)).EndInto(ops, err)
	return err
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
		for j := 1; j < c.k; j++ {
			ops.XorInto(pe, s.Elem(j, i))
		}
	}
	return nil
}

// encodeQ computes the diagonal parity from the data and P strips: each
// Q element is a copy of its diagonal's first cell, then one XorInto per
// further cell.
func (c *Code) encodeQ(s *core.Stripe, ops *core.Ops) error {
	p, k := c.p, c.k
	for d := 0; d < p-1; d++ {
		qe := s.Elem(k+1, d)
		acc := false
		add := func(col, row int) {
			if acc {
				ops.XorInto(qe, s.Elem(col, row))
				return
			}
			ops.Copy(qe, s.Elem(col, row))
			acc = true
		}
		for j := 0; j < k; j++ {
			if row := c.mod(d - j); row != p-1 {
				add(j, row)
			}
		}
		if row := c.mod(d + 1); row != p-1 {
			add(k, row) // the P-column cell of diagonal d
		}
		if !acc {
			ops.Zero(qe)
		}
	}
	return nil
}
