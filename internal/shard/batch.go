package shard

import (
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// batchBudget is the byte size of a streaming batch when
// Options.BatchStripes is zero: large enough that one positional read or
// write per column amortizes the store call, small enough that the batch
// stays in a core's L2 cache while it is read, coded, checksummed and
// written. In a sweep over 256 KiB – 4 MiB on 64 MiB objects at the CLI
// shape (k=8, p=11, 4 KiB elements: 440 KiB stripes) on a 2-vCPU x86
// host, 1 MiB was best on encode by 4–20%, and repair and two-erasure
// reads moved less than their run-to-run spread.
const batchBudget = 1 << 20

// batchShape keys the batch pools: the stripe geometry and the number of
// stripes per batch.
type batchShape struct{ k, m, w, elemSize, stripes int }

// batch is the streaming paths' unit of work: a run of stripes laid out
// column-major, one contiguous buffer per column (k+m of them). Stripe
// j's strip i is the capacity-capped view cols[i][j·sb:(j+1)·sb], so the
// codes see ordinary stripes while each column of the batch moves to or
// from its shard with one positional ReadAt or WriteAt.
//
// Batches come from a per-shape pool and are never zeroed: every path
// overwrites what it uses (the encoder's reader zero-pads the input's
// tail, Encode rewrites every parity strip, Decode every erased one).
type batch struct {
	shape   batchShape
	sb      int // bytes per strip
	cols    [][]byte
	stripes []*core.Stripe
	first   int // index of stripes[0] in the shard set
	n       int // stripes in use
}

var (
	batchPoolsMu sync.Mutex
	batchPools   = map[batchShape]*sync.Pool{}
)

func batchPool(s batchShape) *sync.Pool {
	batchPoolsMu.Lock()
	defer batchPoolsMu.Unlock()
	p := batchPools[s]
	if p == nil {
		p = &sync.Pool{New: func() any { return newBatch(s) }}
		batchPools[s] = p
	}
	return p
}

// getBatch takes a batch of the given shape from its pool; putBatch
// returns it. Its contents are whatever the last user left behind.
func getBatch(s batchShape) *batch { return batchPool(s).Get().(*batch) }

func putBatch(b *batch) { batchPool(b.shape).Put(b) }

func newBatch(s batchShape) *batch {
	sb := s.w * s.elemSize
	colBytes := s.stripes * sb
	backing := make([]byte, (s.k+s.m)*colBytes)
	b := &batch{shape: s, sb: sb, cols: make([][]byte, s.k+s.m), stripes: make([]*core.Stripe, s.stripes)}
	for i := range b.cols {
		b.cols[i], backing = backing[:colBytes:colBytes], backing[colBytes:]
	}
	for j := range b.stripes {
		st := &core.Stripe{K: s.k, W: s.w, ElemSize: s.elemSize, Strips: make([][]byte, s.k+s.m)}
		for i, col := range b.cols {
			st.Strips[i] = col[j*sb : (j+1)*sb : (j+1)*sb]
		}
		b.stripes[j] = st
	}
	return b
}

// window points the batch at stripes [first, first+n) of a set of total
// stripes, n being as many as the batch holds.
func (b *batch) window(first, total int) {
	b.first, b.n = first, min(len(b.stripes), total-first)
}

// col returns column i of the stripes in use: the bytes of shard i at
// offset b.off().
func (b *batch) col(i int) []byte { return b.cols[i][:b.n*b.sb] }

// off is the shard-file offset of the batch's first stripe.
func (b *batch) off() int64 { return int64(b.first) * int64(b.sb) }

// live returns the stripes in use.
func (b *batch) live() []*core.Stripe { return b.stripes[:b.n] }

// batchStripes returns the stripes per batch for a set of total stripes
// of stripeBytes each: Options.BatchStripes when set, otherwise as many
// as fit batchBudget but at least one per worker, and never more than the
// set holds.
func (o Options) batchStripes(stripeBytes, total int) int {
	n := o.BatchStripes
	if n <= 0 {
		n = max(o.workerCount(), batchBudget/stripeBytes)
	}
	return max(1, min(n, total))
}

// fillBatch reads the batch's stripes of every streaming shard (nil
// entries are skipped: the decoder rewrites those strips) straight into
// the batch, one positional read per shard, and updates the rolling CRCs
// when given. A read that returns the whole column with io.EOF succeeds,
// as io.ReaderAt allows; a short one fails even without an error. On
// failure (transient retries already exhausted below this layer) it
// returns the failing column for quarantine.
func fillBatch(files []store.File, b *batch, rolling []uint32) (int, error) {
	for i, f := range files {
		if f == nil {
			continue
		}
		col := b.col(i)
		n, err := f.ReadAt(col, b.off())
		switch {
		case n == len(col) && err == io.EOF:
			err = nil
		case n < len(col) && err == nil:
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return i, fmt.Errorf("shard: shard %d failed mid-stream: %w", i, err)
		}
		if rolling != nil {
			rolling[i] = crc32.Update(rolling[i], crc32.IEEETable, col)
		}
	}
	return -1, nil
}

// writeCol writes column i of the batch to f at the batch's offset and
// returns the rolling CRC sum extended over it. A short write with a nil
// error is io.ErrShortWrite.
func writeCol(f store.File, b *batch, i int, sum uint32) (uint32, error) {
	col := b.col(i)
	n, err := f.WriteAt(col, b.off())
	if err == nil && n < len(col) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return sum, err
	}
	return crc32.Update(sum, crc32.IEEETable, col), nil
}
