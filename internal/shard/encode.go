package shard

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// EncodeOpts splits the contents of r (size bytes) into k+m shards
// written to outDir (m being the code's parity count, 2 for the default
// liberation code; Options.Code picks another), writes the manifest
// beside them and returns it. p = 0 selects the smallest usable prime
// automatically.
//
// The input is read, encoded (each batch's stripes split over up to
// Options.Workers goroutines) and written batch by batch, in batches of
// about 1 MiB (Options.BatchStripes overrides the size) from a pool.
// Each column of a batch goes to its shard with one positional write.
// An encode of at most two batches runs the three steps in turn on the
// caller, with one batch. A longer one runs them as three concurrent
// stages around a ring of three batches: a reader goroutine fills batch
// N+1 from r, a coding goroutine encodes batch N, and the caller drains
// batch N-1 into the shard files in order. Either way the output is
// byte-identical to a sequential encode no matter the worker count, and
// memory is independent of size. A cancelled Options.Context stops the
// encode before its next batch is coded.
//
// On any error every created shard file is removed: a failed encode
// leaves no partial shard set (and no manifest) behind.
func EncodeOpts(r io.Reader, size int64, fileName string, k, p, elemSize int,
	outDir string, opt Options) (_ *Manifest, err error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size", core.ErrParams)
	}
	if elemSize < 1 {
		return nil, fmt.Errorf("%w: element size %d < 1", core.ErrParams, elemSize)
	}
	reg := opt.Registry
	codeName := opt.codeName()
	code, err := cachedCode(codeName, k, p, reg)
	if err != nil {
		return nil, err
	}
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, reg, "shard.encode",
		slog.String("file", filepath.Base(fileName)), slog.Int("k", k))
	defer func() { sp.Bytes(int(size)).End(err) }()
	w := code.W()
	parities := code.M()
	perStripe := int64(k) * int64(w) * int64(elemSize)
	stripes := int((size + perStripe - 1) / perStripe)
	if stripes == 0 {
		stripes = 1
	}
	// Record the resolved prime when the code exposes one (so an auto-
	// selected p survives into the manifest); otherwise keep the request
	// (0 for the non-prime codes), which reconstructs identically.
	mp := p
	if resolved, ok := codes.Prime(code); ok {
		mp = resolved
	}
	m := &Manifest{
		Version:  FormatVersion,
		Code:     codeName,
		K:        k,
		P:        mp,
		M:        parities,
		W:        w,
		ElemSize: elemSize,
		FileName: filepath.Base(fileName),
		FileSize: size,
		Stripes:  stripes,
	}

	// Create the outputs up front — through the store, so creation is
	// retried on transient faults; on any error, remove everything we
	// created so a failed encode leaves no partial shard set behind.
	st := opt.store(ctx)
	var created []string
	files := make([]store.File, k+parities)
	defer func() {
		if err == nil {
			return
		}
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		for _, path := range created {
			st.Remove(path)
		}
	}()
	for i := range files {
		path := filepath.Join(outDir, m.ShardName(i))
		f, createErr := st.Create(path)
		if createErr != nil {
			err = createErr
			return nil, err
		}
		created = append(created, path)
		files[i] = f
	}

	// The three stages, which the in-line loop and the ring both call.
	// Each runs on one goroutine at a time: read alone touches consumed,
	// write alone sums and stripSums. Each times itself into its stage
	// histogram, resolved here once per encode.
	readSeconds := reg.LazyHistogram("shard.encode.read.seconds", obs.LatencyBuckets)
	encodeSeconds := reg.LazyHistogram("shard.encode.encode.seconds", obs.LatencyBuckets)
	writeSeconds := reg.LazyHistogram("shard.encode.write.seconds", obs.LatencyBuckets)
	var consumed int64
	read := func(b *batch) error {
		t0 := clock(reg)
		for _, s := range b.live() {
			got, readErr := fillStripe(r, s, k)
			consumed += got
			if readErr != nil {
				return readErr
			}
		}
		since(readSeconds, t0)
		return nil
	}
	workers := opt.workerCount()
	encodeStripe := func(_ int, s *core.Stripe) error { return code.Encode(s, nil) }
	encode := func(b *batch) error {
		t0 := clock(reg)
		if encErr := forEachStripe(b.live(), workers, encodeStripe); encErr != nil {
			return encErr
		}
		since(encodeSeconds, t0)
		return nil
	}
	// write drains a batch into the shard files, one positional write per
	// column, so shard bytes and checksums match the sequential path
	// exactly. The CRC it rolls over each column records the running sum
	// at every strip's end: the manifest's strip sums.
	sums := make([]uint32, k+parities)
	stripSums := make([][]byte, k+parities)
	backing := make([]byte, 4*stripes*(k+parities))
	for i := range stripSums {
		stripSums[i], backing = backing[:4*stripes:4*stripes], backing[4*stripes:]
	}
	write := func(b *batch) error {
		t0 := clock(reg)
		for i, f := range files {
			if writeErr := writeCol(f, b, i); writeErr != nil {
				return writeErr
			}
			sums[i] = b.rollStrips(i, sums[i], stripSums[i])
		}
		since(writeSeconds, t0)
		return nil
	}

	sb := w * elemSize
	shape := batchShape{k, parities, w, elemSize, opt.batchStripes((k+parities)*sb, stripes)}
	if shape.batches(stripes) <= inlineBatches {
		err = streamBatches(ctx, shape, stripes, false, read, func(b *batch) error {
			if encErr := encode(b); encErr != nil {
				return encErr
			}
			return write(b)
		})
	} else {
		err = encodeRing(ctx, shape, stripes, reg, read, encode, write)
	}
	if err != nil {
		return nil, err
	}
	if consumed != size {
		err = fmt.Errorf("shard: read %d bytes, expected %d", consumed, size)
		return nil, err
	}
	for i := range files {
		if err = files[i].Sync(); err != nil {
			return nil, err
		}
		if err = files[i].Close(); err != nil {
			files[i] = nil
			return nil, err
		}
		files[i] = nil
	}
	m.Checksums, m.StripSums = sums, stripSums

	manifestPath := filepath.Join(outDir, ManifestName(m.FileName))
	created = append(created, manifestPath)
	if err = writeManifest(st, m, manifestPath); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeRing runs an encode of more than inlineBatches batches as three
// concurrent stages around a ring of three batches, so reading, coding
// and writing each own one at steady state (double buffering on both
// hand-offs): a reader goroutine runs read on batch N+1, a coding
// goroutine runs code on batch N, and the caller runs write on batch N-1,
// in stripe order. The first stage error stops all three; a cancelled ctx
// stops the encode before its next batch is coded. Every goroutine has
// returned before encodeRing does. With a registry, each stage's waits
// for its input go to the shard.encode.*.wait.seconds histograms and the
// batches between reader and writer to shard.encode.queue_depth.
func encodeRing(ctx context.Context, s batchShape, total int, reg *obs.Registry, read, code, write func(*batch) error) error {
	ring := [3]*batch{getBatch(s), getBatch(s), getBatch(s)}
	defer func() {
		for _, b := range ring {
			putBatch(b)
		}
	}()
	free := make(chan *batch, len(ring))
	filled := make(chan *batch, 1)
	encoded := make(chan *batch, 1)
	for _, b := range ring {
		free <- b
	}

	abort := make(chan struct{})
	var failOnce sync.Once
	var stageErr error
	fail := func(e error) {
		failOnce.Do(func() {
			stageErr = e
			close(abort)
		})
	}
	readWait := reg.LazyHistogram("shard.encode.read.wait.seconds", obs.LatencyBuckets)
	encodeWait := reg.LazyHistogram("shard.encode.encode.wait.seconds", obs.LatencyBuckets)
	writeWait := reg.LazyHistogram("shard.encode.write.wait.seconds", obs.LatencyBuckets)
	// The depth gauge is resolved once, at the first hand-off, so it
	// appears only once a batch has been queued.
	depth := sync.OnceValue(func() *obs.Gauge { return reg.Gauge("shard.encode.queue_depth") })
	var wg sync.WaitGroup

	// Stage 1: reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := 0; first < total; first += s.stripes {
			t0 := clock(reg)
			var b *batch
			select {
			case b = <-free:
			case <-abort:
				return
			}
			since(readWait, t0)
			b.window(first, total)
			if err := read(b); err != nil {
				fail(err)
				return
			}
			select {
			case filled <- b:
				depth().Add(1)
			case <-abort:
				return
			}
		}
		close(filled)
	}()

	// Stage 2: coding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			t0 := clock(reg)
			var b *batch
			var ok bool
			select {
			case b, ok = <-filled:
			case <-abort:
				return
			}
			if !ok {
				close(encoded)
				return
			}
			since(encodeWait, t0)
			if err := stopped(ctx, b.first); err != nil {
				fail(err)
				return
			}
			if err := code(b); err != nil {
				fail(err)
				return
			}
			select {
			case encoded <- b:
			case <-abort:
				return
			}
		}
	}()

	// Stage 3: writer (this goroutine).
writeLoop:
	for {
		t0 := clock(reg)
		var b *batch
		var ok bool
		select {
		case b, ok = <-encoded:
		case <-abort:
			break writeLoop
		}
		if !ok {
			break
		}
		since(writeWait, t0)
		if err := write(b); err != nil {
			fail(err)
			break
		}
		depth().Add(-1)
		free <- b // ring capacity guarantees room
	}
	wg.Wait()
	return stageErr
}

// fillStripe reads one stripe's worth of data strips from r, returning
// the byte count actually read. Hitting EOF is not an error: the
// remainder of the stripe is zero-padded (the caller reconciles the
// total consumed count against the declared size).
func fillStripe(r io.Reader, s *core.Stripe, k int) (int64, error) {
	var total int64
	for t := 0; t < k; t++ {
		strip := s.Strips[t]
		n, err := io.ReadFull(r, strip)
		total += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			for i := n; i < len(strip); i++ {
				strip[i] = 0
			}
			for t++; t < k; t++ {
				strip = s.Strips[t]
				for i := range strip {
					strip[i] = 0
				}
			}
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
