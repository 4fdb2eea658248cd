package shard

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Encode splits the contents of r (size bytes) into k+m shards written
// to outDir (m being the code's parity count, 2 for the default
// liberation code), returning the manifest (also written to outDir).
// p = 0 selects the smallest usable prime automatically.
func Encode(r io.Reader, size int64, fileName string, k, p, elemSize int, outDir string) (*Manifest, error) {
	return EncodeOpts(r, size, fileName, k, p, elemSize, outDir, Options{})
}

// EncodeObserved is Encode with a metrics registry attached to the
// underlying code: the per-algorithm spans (liberation.encode) and a
// shard.encode span covering the whole file land in reg. A nil registry
// makes it identical to Encode.
func EncodeObserved(r io.Reader, size int64, fileName string, k, p, elemSize int,
	outDir string, reg *obs.Registry) (*Manifest, error) {
	return EncodeOpts(r, size, fileName, k, p, elemSize, outDir, Options{Registry: reg})
}

// EncodeParallel is Encode with the stripe encoding fanned out over a
// worker pool (workers <= 0 uses all cores): stripes are read in
// batches, encoded concurrently (each stripe is independent), and
// written out in order so shard files and checksums are byte-identical
// to the sequential path.
func EncodeParallel(r io.Reader, size int64, fileName string, k, p, elemSize int,
	outDir string, workers int) (*Manifest, error) {
	return EncodeParallelObserved(r, size, fileName, k, p, elemSize, outDir, workers, nil)
}

// EncodeParallelObserved is EncodeParallel with a metrics registry
// attached to both the code (liberation.encode spans) and the worker
// pool (pipeline.encode spans and queue-wait histograms). A nil
// registry makes it identical to EncodeParallel.
func EncodeParallelObserved(r io.Reader, size int64, fileName string, k, p, elemSize int,
	outDir string, workers int, reg *obs.Registry) (*Manifest, error) {
	if workers <= 0 {
		workers = -1 // historical EncodeParallel semantics: 0 = all cores
	}
	return EncodeOpts(r, size, fileName, k, p, elemSize, outDir,
		Options{Workers: workers, Registry: reg})
}

// EncodeOpts is the streaming encoder behind Encode and EncodeParallel.
//
// Three stages run concurrently, handing batches of stripes around a
// fixed ring: a reader goroutine fills batch N+1 from r, the coding
// stage encodes batch N (in-line, or over a pipeline worker pool when
// opt.Workers > 1), and the writer drains batch N-1 into the shard
// files in order, so the output is byte-identical to a sequential
// encode no matter the worker count. Each column of a batch goes to its
// shard with one positional write. The batches come from a pool; the
// ring holds at most three of about 1 MiB each (Options.BatchStripes
// overrides the size), independent of size.
//
// On any error every created shard file is removed: a failed encode
// leaves no partial shard set (and no manifest) behind.
func EncodeOpts(r io.Reader, size int64, fileName string, k, p, elemSize int,
	outDir string, opt Options) (_ *Manifest, err error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size", core.ErrParams)
	}
	reg := opt.Registry
	codeName := opt.codeName()
	code, err := newCode(codeName, k, p, reg)
	if err != nil {
		return nil, err
	}
	countShardOp(reg, "encode", codeName)
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, reg, "shard.encode",
		slog.String("file", filepath.Base(fileName)), slog.Int("k", k))
	defer func() {
		sp.Bytes(int(size)).End(err)
		stampFlight(ctx, err)
	}()
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

	// The batch ring: 3 batches so reading, encoding, and writing each
	// own one at steady state (double buffering on both hand-offs), or
	// fewer when the file spans fewer batches.
	sb := w * elemSize
	shape := batchShape{k, parities, w, elemSize, opt.batchStripes((k+parities)*sb, stripes)}
	ring := make([]*batch, min(3, (stripes+shape.stripes-1)/shape.stripes))
	free := make(chan *batch, len(ring))
	filled := make(chan *batch, 1)
	encoded := make(chan *batch, 1)
	for i := range ring {
		ring[i] = getBatch(shape)
		free <- ring[i]
	}
	defer func() {
		for _, b := range ring {
			putBatch(b)
		}
	}()

	abort := make(chan struct{})
	var failOnce sync.Once
	var stageErr error
	fail := func(e error) {
		failOnce.Do(func() {
			stageErr = e
			close(abort)
		})
	}
	now := func() time.Time {
		if reg == nil {
			return time.Time{}
		}
		return time.Now()
	}
	since := func(name string, t0 time.Time) {
		if reg != nil {
			observeWait(reg, name, time.Since(t0))
		}
	}

	var consumed int64 // owned by the reader; read after wg.Wait
	var wg sync.WaitGroup

	// Stage 1: reader. Fills batches from r, zero-padding the tail.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := 0; first < stripes; {
			t0 := now()
			var b *batch
			select {
			case b = <-free:
			case <-abort:
				return
			}
			since("shard.encode.read.wait.seconds", t0)
			b.window(first, stripes)
			t1 := now()
			for _, s := range b.live() {
				got, readErr := fillStripe(r, s, k)
				consumed += got
				if readErr != nil {
					fail(readErr)
					return
				}
			}
			since("shard.encode.read.seconds", t1)
			select {
			case filled <- b:
				addGauge(reg, "shard.encode.queue_depth", 1)
			case <-abort:
				return
			}
			first += b.n
		}
		close(filled)
	}()

	// Stage 2: coding. In-line for the serial path (keeping the span
	// profile of a sequential encode), a pipeline pool otherwise.
	workers := opt.workerCount()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			t0 := now()
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
			since("shard.encode.encode.wait.seconds", t0)
			t1 := now()
			var encErr error
			if workers > 1 {
				encErr = pipeline.EncodeAll(code, b.live(), nil,
					pipeline.Config{Workers: workers, Registry: reg, Context: ctx})
			} else {
				for _, s := range b.live() {
					if encErr = code.Encode(s, nil); encErr != nil {
						break
					}
				}
			}
			if encErr != nil {
				fail(encErr)
				return
			}
			since("shard.encode.encode.seconds", t1)
			select {
			case encoded <- b:
			case <-abort:
				return
			}
		}
	}()

	// Stage 3: writer (this goroutine). Drains batches in order, one
	// positional write per column, so shard bytes and checksums match the
	// sequential path exactly.
	sums := make([]uint32, k+parities)
writeLoop:
	for {
		t0 := now()
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
		since("shard.encode.write.wait.seconds", t0)
		t1 := now()
		for i, f := range files {
			var writeErr error
			if sums[i], writeErr = writeCol(f, b, i, sums[i]); writeErr != nil {
				fail(writeErr)
				break writeLoop
			}
		}
		since("shard.encode.write.seconds", t1)
		addGauge(reg, "shard.encode.queue_depth", -1)
		free <- b // ring capacity guarantees room
	}
	wg.Wait()
	if stageErr != nil {
		err = stageErr
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
	m.Checksums = sums

	// A node-mapped store knows where every shard landed: record the
	// placement (v3 block) so decode sessions and operators can reason
	// about which node outages this shard set survives.
	if mapper, ok := opt.Store.(store.NodeMapper); ok {
		pl := &Placement{Policy: mapper.PlacementPolicy(), Nodes: mapper.NodeCount(),
			Shards: make([]int, k+parities)}
		for i := range pl.Shards {
			pl.Shards[i] = mapper.NodeFor(filepath.Join(outDir, m.ShardName(i)))
		}
		m.Placement = pl
	}

	manifestPath := filepath.Join(outDir, ManifestName(m.FileName))
	created = append(created, manifestPath)
	if err = writeManifest(st, m, manifestPath); err != nil {
		return nil, err
	}
	return m, nil
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
