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
//
// A decode's coefficient rows depend only on which strips are lost, not
// on the bytes, so Decode derives them (a t×t inversion folded over the k
// survivors) once per erasure set and caches them on the code as a
// decodePlan; every later stripe with the same losses is t dot products.
// With gf's GFNI kernel under Dot, deriving them per stripe (20 small
// allocations) would be about a third of an rs3 triple-erasure decode.
package rs

import (
	"fmt"
	"sync"

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

	planMu sync.Mutex
	plans  map[erasureSet]*decodePlan // decode plans by erasure set (see plan)

	obs.CodeSpans // nil until Instrument
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
// records an rsm.encode / rsm.decode span. The span families are
// resolved here, once, so a span costs two monotonic clock reads and one
// atomic add per metric, with no lock or allocation: about 0.2 µs on a
// 2-vCPU Xeon (obs's BenchmarkSpan). A nil registry detaches. (GF(2^8) multiplications are not element XORs and
// are not counted in Ops; the XOR half of each multiply-accumulate is.)
func (c *MCode) Instrument(reg *obs.Registry) {
	c.CodeSpans = obs.CodeSpans{
		EncodeSpan: reg.Family("rsm.encode"),
		DecodeSpan: reg.Family("rsm.decode"),
	}
}

// Encode computes the m parity strips: parity i is the data vector dotted
// with row i of the parity matrix.
func (c *MCode) Encode(s *core.Stripe, ops *core.Ops) error {
	sp := c.EncodeSpan.Start()
	err := c.encode(s, sp.Count(ops))
	sp.Bytes(s.DataSize()).Units(c.m).EndInto(ops, err)
	return err
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
// parity matrix is invertible. The rows depend only on the erasure set,
// so they are derived once per set and cached on the code (see plan).
func (c *MCode) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	sp := c.DecodeSpan.Start()
	err := c.decode(s, erased, sp.Count(ops))
	sp.Bytes(s.DataSize()).Units(len(erased)).EndInto(ops, err)
	return err
}

func (c *MCode) decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return err
	}
	var set erasureSet
	n := 0
	for _, e := range erased {
		if e < 0 || e >= c.k+c.m {
			return fmt.Errorf("%w: erased=%v", core.ErrParams, erased)
		}
		if !set.has(e) {
			set.add(e)
			n++
		}
	}
	if n > c.m {
		return core.ErrTooManyErasures
	}
	p, err := c.plan(set)
	if err != nil {
		return err
	}
	if len(p.coeffs) > 0 {
		srcs := make([][]byte, len(p.survivors))
		for i, j := range p.survivors {
			srcs[i] = s.Strips[j]
		}
		for x, row := range p.coeffs {
			dot(s.Strips[p.lostData[x]], srcs, row, ops)
		}
	}
	for _, e := range p.lostParity {
		c.encodeParity(s, e-c.k, ops)
	}
	return nil
}

// erasureSet is a set of strip indices, one bit per strip: up to 257, for
// New's k = 255 and its two parities.
type erasureSet [5]uint64

func (s *erasureSet) add(e int)      { s[e/64] |= 1 << (e % 64) }
func (s *erasureSet) has(e int) bool { return s[e/64]&(1<<(e%64)) != 0 }

// decodePlan is what Decode derives from an erasure set, independent of
// the stripe's bytes.
type decodePlan struct {
	lostData   []int    // lost data strips, ascending
	survivors  []int    // the k source strips: intact data, then the first t intact parities
	coeffs     [][]byte // lost data strip lostData[x] is coeffs[x] dotted with the survivors
	lostParity []int    // lost parity strips, re-encoded from the restored data
}

// maxPlans bounds the plan cache. A shard set or an array loses one set
// of strips at a time, so a handful of plans serve a whole stream; a
// caller that sweeps every erasure set of a wide code would otherwise
// grow the cache without limit, so a full cache starts over.
const maxPlans = 1024

// plan returns the decode plan for a set of at most m erasures, from the
// code's cache or freshly derived. Concurrent decodes may derive the same
// plan twice; either copy is correct.
func (c *MCode) plan(set erasureSet) (*decodePlan, error) {
	c.planMu.Lock()
	p, ok := c.plans[set]
	c.planMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := c.newPlan(set)
	if err != nil {
		return nil, err
	}
	c.planMu.Lock()
	if c.plans == nil || len(c.plans) >= maxPlans {
		c.plans = make(map[erasureSet]*decodePlan)
	}
	c.plans[set] = p
	c.planMu.Unlock()
	return p, nil
}

func (c *MCode) newPlan(set erasureSet) (*decodePlan, error) {
	k := c.k
	p := &decodePlan{}
	for e := 0; e < k+c.m; e++ {
		if !set.has(e) {
			continue
		}
		if e < k {
			p.lostData = append(p.lostData, e)
		} else {
			p.lostParity = append(p.lostParity, e)
		}
	}
	t := len(p.lostData)
	if t == 0 {
		return p, nil
	}
	// The k survivors are the intact data strips, then the first t intact
	// parities (rows). Row l of a is parity row rows[l] over the lost
	// columns; row l of b is that row over the survivors, where its own
	// parity enters as a unit column.
	rows := make([]int, 0, t)
	for j := 0; j < k; j++ {
		if !set.has(j) {
			p.survivors = append(p.survivors, j)
		}
	}
	for i := 0; len(rows) < t; i++ {
		if !set.has(k + i) {
			rows = append(rows, i)
			p.survivors = append(p.survivors, k+i)
		}
	}
	a, b := make([][]byte, t), make([][]byte, t)
	for l, i := range rows {
		b[l] = make([]byte, k)
		b[l][k-t+l] = 1
		for j, f := range c.parity[i] {
			if set.has(j) {
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
		return nil, fmt.Errorf("rs: lost-column system not invertible: %w", err)
	}
	// a·lost = b·survivors, so lost strip x is row x of inv·b dotted with
	// the survivors.
	p.coeffs = gf.MulMatrix(inv, b)
	return p, nil
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
