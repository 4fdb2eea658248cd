// Package rs implements Reed-Solomon codes over GF(2^8): the
// conventional finite-field RAID-6 baseline the paper's introduction
// contrasts the XOR-based array codes with, and its generalization to m
// parities. Each strip is a single element (W = 1).
//
// One engine, MCode, serves both. A code is its m×k parity matrix: parity
// i is the data vector dotted with row i. New builds the Linux-RAID-6 P+Q
// rows,
//
//	P = XOR_j D_j
//	Q = XOR_j g^j * D_j        (g = 2, the field generator)
//
// which tolerate any two erasures for k up to 255; NewM builds the rows of
// a systematic Vandermonde generator, MDS for any m with k+m <= 256.
//
// Every strip the engine writes is one gf.Dot over k source strips: a
// parity over the data on encode, a lost data strip over the k survivors
// on decode. An all-ones row (all of P) runs as plain word XORs.
package rs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/obs"
	"repro/internal/xorblk"
)

// MCode is a Reed-Solomon code with k data strips and m parity strips
// over GF(2^8), tolerating any m erasures.
type MCode struct {
	k, m   int
	name   string
	parity [][]byte // m×k parity submatrix of the systematic generator

	obs *obs.Registry // optional metrics sink (see Instrument)
}

// New returns the RS P+Q code for k data strips (1 <= k <= 255): parity
// rows [1 ... 1] and [g^0 ... g^(k-1)]. Every 2×2 minor of the generator
// is nonzero because the g^j are distinct, so the code is MDS.
func New(k int) (*MCode, error) {
	if k < 1 || k > 255 {
		return nil, fmt.Errorf("%w: need 1 <= k <= 255, got k=%d", core.ErrParams, k)
	}
	p, q := make([]byte, k), make([]byte, k)
	for j := range p {
		p[j], q[j] = 1, gf.Exp(j)
	}
	return &MCode{k: k, m: 2, name: fmt.Sprintf("rs(k=%d)", k), parity: [][]byte{p, q}}, nil
}

// NewM returns the generalized RS code with k data strips and m parities
// (k >= 1, m >= 1, k+m <= 256).
func NewM(k, m int) (*MCode, error) {
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("%w: need k >= 1, m >= 1, k+m <= 256, got k=%d m=%d",
			core.ErrParams, k, m)
	}
	parity, err := gf.RSParityMatrix(k, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrParams, err)
	}
	return &MCode{k: k, m: m, name: fmt.Sprintf("rs(k=%d,m=%d)", k, m), parity: parity}, nil
}

func (c *MCode) Name() string { return c.name }
func (c *MCode) K() int       { return c.k }

// M returns the parity count the code was built with.
func (c *MCode) M() int { return c.m }

// W returns 1: RS strips are single elements.
func (c *MCode) W() int { return 1 }

// Instrument attaches a metrics registry: every Encode and Decode then
// records an rsm.encode / rsm.decode span. A nil registry detaches.
// (GF(2^8) multiplications are not element XORs and are not counted in
// Ops; the XOR half of each multiply-accumulate is.)
func (c *MCode) Instrument(reg *obs.Registry) { c.obs = reg }

// Registry returns the attached metrics registry (nil when detached).
func (c *MCode) Registry() *obs.Registry { return c.obs }

// Encode computes the m parity strips: parity i is the data vector dotted
// with row i of the parity matrix.
func (c *MCode) Encode(s *core.Stripe, ops *core.Ops) error {
	return obs.Observed(c.obs, "rsm.encode", s.DataSize(), c.m, ops,
		func(o *core.Ops) error { return c.encode(s, o) })
}

func (c *MCode) encode(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return err
	}
	for i := 0; i < c.m; i++ {
		c.encodeParity(s, i, ops)
	}
	return nil
}

// encodeParity recomputes parity strip i (0 <= i < m) from the data.
func (c *MCode) encodeParity(s *core.Stripe, i int, ops *core.Ops) {
	dot(s.Strips[c.k+i], s.Strips[:c.k], c.parity[i], ops)
}

// dot sets dst to the k-source dot product srcs·coeffs, counted as its
// first term's multiply-into (a copy) plus one element XOR for the XOR
// half of each further multiply-accumulate.
func dot(dst []byte, srcs [][]byte, coeffs []byte, ops *core.Ops) {
	gf.Dot(dst, srcs, coeffs)
	ops.Add(core.Ops{Copies: 1, XORs: uint64(len(srcs) - 1)})
}

// Decode reconstructs up to m erased strips in dot form. With t data
// strips lost, it takes the first t surviving parity rows, inverts their
// t×t restriction to the lost columns, and folds the inverse into t
// coefficient rows over the k surviving strips; each lost data strip is
// then one dot product. Lost parities are re-encoded from the full data.
// Any t surviving parity rows suffice: every square submatrix of an MDS
// parity matrix is invertible.
func (c *MCode) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	return obs.Observed(c.obs, "rsm.decode", s.DataSize(), len(erased), ops,
		func(o *core.Ops) error { return c.decode(s, erased, o) })
}

func (c *MCode) decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return err
	}
	k := c.k
	lost := make([]int, 0, len(erased))
	for _, e := range erased {
		if e < 0 || e >= k+c.m {
			return fmt.Errorf("%w: erased=%v", core.ErrParams, erased)
		}
		if !contains(lost, e) {
			lost = append(lost, e)
		}
	}
	if len(lost) > c.m {
		return core.ErrTooManyErasures
	}
	sort.Ints(lost)
	t := sort.SearchInts(lost, k)
	lostData, lostParity := lost[:t], lost[t:]

	if t > 0 {
		// The k survivors are the intact data strips, then the first t
		// intact parities (rows). Row l of a is parity row rows[l] over the
		// lost columns; row l of b is that row over the survivors, where
		// its own parity enters as a unit column.
		rows, srcs := make([]int, 0, t), make([][]byte, 0, k)
		for j := 0; j < k; j++ {
			if !contains(lostData, j) {
				srcs = append(srcs, s.Strips[j])
			}
		}
		for i := 0; len(rows) < t; i++ {
			if !contains(lostParity, k+i) {
				rows = append(rows, i)
				srcs = append(srcs, s.Strips[k+i])
			}
		}
		a, b := make([][]byte, t), make([][]byte, t)
		for l, i := range rows {
			b[l] = make([]byte, k)
			b[l][k-t+l] = 1
			for j, f := range c.parity[i] {
				if contains(lostData, j) {
					a[l] = append(a[l], f)
				} else {
					b[l][j-len(a[l])] = f // j's place among the survivors
				}
			}
		}
		inv, err := gf.InvertMatrix(a)
		if err != nil {
			// Unreachable for an MDS parity matrix; surface it rather than
			// writing garbage if the tables are ever miscomputed.
			return fmt.Errorf("rs: lost-column system not invertible: %w", err)
		}
		// a·lost = b·survivors, so lost strip x is row x of inv·b dotted
		// with the survivors.
		for x, row := range gf.MulMatrix(inv, b) {
			dot(s.Strips[lostData[x]], srcs, row, ops)
		}
	}
	for _, e := range lostParity {
		c.encodeParity(s, e-k, ops)
	}
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Update patches all m parities after an in-place change of the data
// element at (col, row): parity i absorbs parity[i][col] * delta.
func (c *MCode) Update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return 0, err
	}
	if col < 0 || col >= c.k || row != 0 {
		return 0, fmt.Errorf("%w: update at (%d,%d)", core.ErrParams, col, row)
	}
	cur := s.Strips[col]
	if len(oldElem) != len(cur) {
		return 0, fmt.Errorf("%w: old element is %d bytes, strip is %d",
			core.ErrParams, len(oldElem), len(cur))
	}
	delta := oldElem // becomes old ⊕ new in place (the Updater contract)
	xorblk.XorInto(delta, cur)
	if xorblk.IsZero(delta) {
		return 0, nil
	}
	for i := 0; i < c.m; i++ {
		gf.MulXorSlice(s.Strips[c.k+i], delta, c.parity[i][col])
		ops.Add(core.Ops{XORs: 1})
	}
	return c.m, nil
}
