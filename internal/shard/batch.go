package shard

import (
	"context"
	"encoding/binary"
	"errors"
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

// inlineBatches is the most batches a stream runs on the calling
// goroutine alone, with one batch and no goroutine. A longer decode reads
// ahead on a second goroutine (streamBatches) and a longer encode runs
// its three-stage ring (encodeRing); a stream this short leaves too
// little to overlap to pay for the hand-offs. In a sweep over 1–4 on a
// 2-vCPU x86 host (end-to-end benchmark, 8 s runs), rs3-mix-1m, whose
// 1 MiB objects span two batches, ran at 2676 MB/s with 1 (its encodes on
// a ring of two, its decodes reading ahead) against 3092–3141 MB/s with
// 2–4, and peaked at 4.15 against 3.58 MB of heap. small-mix-256k (one
// batch) and read-2lost-64m (64 batches) run the same code at every
// value and moved less than their run-to-run spread. 2 is the smallest
// value that keeps two-batch streams in line.
const inlineBatches = 2

// batchShape keys the batch pools: the stripe geometry and the number of
// stripes per batch.
type batchShape struct{ k, m, w, elemSize, stripes int }

// batches returns how many batches of this shape a set of total stripes
// spans.
func (s batchShape) batches(total int) int { return (total + s.stripes - 1) / s.stripes }

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
	// failed holds, per stripe in use, the streamed strips that failed
	// their strip sums (a version 5 decode; see recovery.checkStrips).
	failed [][]int
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

// forEachStripe runs fn on every stripe, with the stripe's index in
// stripes. With one worker it runs in line; otherwise it splits the
// stripes into up to workers contiguous runs, codes the first on the
// calling goroutine and each other on its own, and waits for all of
// them. (The caller takes a run rather than idling in Wait until the
// scheduler starts every goroutine.) Stripes share no memory, so no
// ordering or output byte depends on the split. A run stops at its
// first error while the others finish theirs, and the runs' errors come
// back joined.
func forEachStripe(stripes []*core.Stripe, workers int, fn func(j int, s *core.Stripe) error) error {
	runs := min(workers, len(stripes))
	if runs <= 1 {
		for j, s := range stripes {
			if err := fn(j, s); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, runs)
	run := func(r int) {
		for j := r * len(stripes) / runs; j < (r+1)*len(stripes)/runs; j++ {
			if errs[r] = fn(j, stripes[j]); errs[r] != nil {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for r := 1; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(r)
		}()
	}
	run(0)
	wg.Wait()
	return errors.Join(errs...)
}

// streamBatches runs stripes [0, total) through batches of shape s in
// stripe order: fill reads the batch whose window it is handed, and use
// codes it and passes it on. A cancelled ctx stops the stream before its
// next batch is filled or used.
//
// A stream of at most inlineBatches batches, and any stream when ahead is
// false, runs fill and use in turn on the caller with one batch.
// Otherwise a reader goroutine runs fill on batch N+1 while the caller
// runs use on batch N, around a ring of two batches. The caller still
// sees the batches, and their errors, in stripe order: a fill that fails
// is returned only after use has taken every batch before it, and is
// dropped when one of those fails. The reader checks ctx before every
// fill and has returned before streamBatches does, on every path. It
// reads at most one batch past the one where the caller stopped, and
// short of a cancelled ctx which batches it fills depends on the
// caller's progress alone, not on timing, so a stream's store calls
// repeat from run to run. fill must touch nothing but the batch and what
// use does not touch.
func streamBatches(ctx context.Context, s batchShape, total int, ahead bool, fill, use func(*batch) error) error {
	if !ahead || s.batches(total) <= inlineBatches {
		b := getBatch(s)
		defer putBatch(b)
		for first := 0; first < total; first += s.stripes {
			if err := stopped(ctx, first); err != nil {
				return err
			}
			b.window(first, total)
			if err := fill(b); err != nil {
				return err
			}
			if err := use(b); err != nil {
				return err
			}
		}
		return nil
	}

	// A filled batch, or the error that stopped the reader on it.
	type filled struct {
		b   *batch
		err error
	}
	ring := [2]*batch{getBatch(s), getBatch(s)}
	free := make(chan *batch, len(ring))
	full := make(chan filled, len(ring)) // one send per batch held: never blocks
	for _, b := range ring {
		free <- b
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(full)
		for first := 0; first < total; first += s.stripes {
			b, ok := <-free
			if !ok {
				return
			}
			err := stopped(ctx, first)
			if err == nil {
				b.window(first, total)
				err = fill(b)
			}
			full <- filled{b, err}
			if err != nil {
				return
			}
		}
	}()
	// Closing free stops the reader once it has filled the batch after
	// the caller's last, which the caller handed back before taking it.
	defer func() {
		close(free)
		wg.Wait()
		for _, b := range ring {
			putBatch(b)
		}
	}()
	for f := range full {
		if f.err != nil {
			return f.err
		}
		if err := stopped(ctx, f.b.first); err != nil {
			return err
		}
		if err := use(f.b); err != nil {
			return err
		}
		free <- f.b
	}
	return nil
}

// stopped returns the error that stops a stream at stripe first when
// ctx is done, and nil otherwise.
func stopped(ctx context.Context, first int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("shard: stopped at stripe %d: %w", first, err)
	}
	return nil
}

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

// writeCol writes column i of the batch to f at the batch's offset. A
// short write with a nil error is io.ErrShortWrite.
func writeCol(f store.File, b *batch, i int) error {
	col := b.col(i)
	n, err := f.WriteAt(col, b.off())
	if err == nil && n < len(col) {
		err = io.ErrShortWrite
	}
	return err
}

// rollStrips extends sum over column i of the batch one strip at a
// time, stores the running sum after each strip big-endian in that
// stripe's 4-byte slot of ends (a shard's Manifest.StripSums), and
// returns the sum over the whole column.
func (b *batch) rollStrips(i int, sum uint32, ends []byte) uint32 {
	col, ends := b.col(i), ends[4*b.first:]
	for j := range b.n {
		sum = crc32.Update(sum, crc32.IEEETable, col[j*b.sb:(j+1)*b.sb])
		binary.BigEndian.PutUint32(ends[4*j:], sum)
	}
	return sum
}
