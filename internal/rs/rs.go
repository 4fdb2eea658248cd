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
// Coefficient-1 terms (all of P) run as plain word XORs.
package rs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/obs"
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

// encodeParity recomputes parity strip i (0 <= i < m) from the data. The
// first term is a multiply-into (counted as a copy), each further term a
// multiply-accumulate (its XOR half counted as one element XOR).
func (c *MCode) encodeParity(s *core.Stripe, i int, ops *core.Ops) {
	row, dst := c.parity[i], s.Strips[c.k+i]
	gf.MulSlice(dst, s.Strips[0], row[0])
	ops.Add(core.Ops{Copies: 1})
	for j := 1; j < c.k; j++ {
		gf.MulXorSlice(dst, s.Strips[j], row[j])
		ops.Add(core.Ops{XORs: 1})
	}
}

// Decode reconstructs up to m erased strips in syndrome form. With t data
// strips lost, it takes the first t surviving parity rows, folds every
// surviving data strip into those rows' syndromes — accumulated in the
// lost strips' own buffers — and solves the t×t system over the lost
// columns in place; lost parities are then re-encoded from the full data.
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
		// Parity row rows[l] yields the syndrome accumulated in bufs[l];
		// a[l] is that row restricted to the lost columns.
		rows := make([]int, 0, t)
		for i := 0; len(rows) < t; i++ {
			if !contains(lostParity, k+i) {
				rows = append(rows, i)
			}
		}
		a, bufs := make([][]byte, t), make([][]byte, t)
		for l, i := range rows {
			bufs[l] = s.Strips[lostData[l]]
			ops.Copy(bufs[l], s.Strips[k+i])
			a[l] = make([]byte, t)
			for x, d := range lostData {
				a[l][x] = c.parity[i][d]
			}
		}
		// Each surviving strip is folded into every syndrome while it is
		// still in cache.
		for j := 0; j < k; j++ {
			if contains(lostData, j) {
				continue
			}
			for l, i := range rows {
				gf.MulXorSlice(bufs[l], s.Strips[j], c.parity[i][j])
				ops.Add(core.Ops{XORs: 1})
			}
		}
		if err := solve(a, bufs, ops); err != nil {
			// Unreachable for an MDS parity matrix; surface it rather than
			// writing garbage if the tables are ever miscomputed.
			return fmt.Errorf("rs: syndrome system not invertible: %w", err)
		}
	}
	for _, e := range lostParity {
		c.encodeParity(s, e-k, ops)
	}
	return nil
}

// solve reduces the square system a·x = y by Gauss-Jordan elimination,
// where y[i] is held in bufs[i]; on return bufs[i] holds x[i]. Every row
// operation on a is mirrored onto the buffers, so no scratch strip is
// needed. No row swap is ever required: each leading minor of a is itself
// a square submatrix of the MDS parity matrix, hence nonsingular, so every
// pivot is nonzero.
func solve(a, bufs [][]byte, ops *core.Ops) error {
	for col := range a {
		if a[col][col] == 0 {
			return gf.ErrSingular
		}
		if inv := gf.Inv(a[col][col]); inv != 1 {
			for j := range a[col] {
				a[col][j] = gf.Mul(a[col][j], inv)
			}
			gf.MulSlice(bufs[col], bufs[col], inv)
		}
		for r := range a {
			if f := a[r][col]; r != col && f != 0 {
				for j := range a[r] {
					a[r][j] ^= gf.Mul(f, a[col][j])
				}
				gf.MulXorSlice(bufs[r], bufs[col], f)
				ops.Add(core.Ops{XORs: 1})
			}
		}
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
	delta := make([]byte, len(cur))
	for i := range delta {
		delta[i] = oldElem[i] ^ cur[i]
	}
	for i := 0; i < c.m; i++ {
		gf.MulXorSlice(s.Strips[c.k+i], delta, c.parity[i][col])
		ops.Add(core.Ops{XORs: 1})
	}
	return c.m, nil
}
