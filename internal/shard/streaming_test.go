package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// TestStreamingGolden pins the streaming Decode/Repair against the
// original content for a matrix of code shapes, erasure pairs, and
// awkward sizes: every recovered byte and every repaired shard file
// must match what the encode produced.
func TestStreamingGolden(t *testing.T) {
	sizes := []int64{0, 1, 3*4*32 - 1, 3 * 4 * 32, 5*5*32*2 + 17}
	for _, k := range []int{3, 5, 7} {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("k=%d/size=%d", k, size), func(t *testing.T) {
				dir, content, m := encodeTestFile(t, size, k, 0, 32)
				// Save every shard's original bytes so repairs can be
				// compared byte-for-byte, not just by checksum.
				golden := make([][]byte, m.K+2)
				for i := range golden {
					b, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
					if err != nil {
						t.Fatal(err)
					}
					golden[i] = b
				}
				manifest := filepath.Join(dir, ManifestName(m.FileName))
				for a := 0; a < m.K+2; a++ {
					for b := a + 1; b < m.K+2; b++ {
						for _, e := range []int{a, b} {
							if err := os.Remove(filepath.Join(dir, m.ShardName(e))); err != nil {
								t.Fatal(err)
							}
						}
						var out bytes.Buffer
						if _, err := DecodeReport(manifest, &out, Options{}); err != nil {
							t.Fatalf("DecodeReport erasures (%d,%d): %v", a, b, err)
						}
						if !bytes.Equal(out.Bytes(), content) {
							t.Fatalf("decode erasures (%d,%d): output differs from original", a, b)
						}
						repaired, err := RepairOpts(manifest, Options{})
						if err != nil {
							t.Fatalf("RepairOpts erasures (%d,%d): %v", a, b, err)
						}
						if len(repaired) != 2 {
							t.Fatalf("Repair erasures (%d,%d): repaired %v, want 2 shards", a, b, repaired)
						}
						for _, e := range []int{a, b} {
							got, err := os.ReadFile(filepath.Join(dir, m.ShardName(e)))
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, golden[e]) {
								t.Fatalf("repaired shard %d differs from its original bytes", e)
							}
						}
					}
				}
			})
		}
	}
}

// TestStreamingOptionsMatchDefaults checks that worker and batch knobs
// change only performance, never bytes: every Options combination must
// produce shard files and decode output identical to the one-stripe-
// per-batch path. The second input's stripe is larger than the batch
// budget, so its default batch holds one stripe, or one per worker.
// Batches are not zeroed: with two stripes per batch the encode ring of
// three wraps, so the ragged last stripe lands in a batch that held
// earlier data and its zero padding must be written, not inherited.
func TestStreamingOptionsMatchDefaults(t *testing.T) {
	for _, in := range []struct {
		name              string
		elem, size        int
		dflt, fourWorkers int // stripes per default batch, without and with Workers: 4
	}{
		{"small-stripes", 64, 4*5*64*7 + 333, 8, 8},
		{"stripe-over-budget", 40 << 10, 4*5*(40<<10)*5 + 333, 1, 4},
	} {
		t.Run(in.name, func(t *testing.T) {
			content := make([]byte, in.size)
			rand.New(rand.NewSource(99)).Read(content)
			size := int64(in.size)

			baseDir := t.TempDir()
			base, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, in.elem, baseDir,
				Options{BatchStripes: 1})
			if err != nil {
				t.Fatal(err)
			}
			sb, _ := base.shardShape()
			stripeBytes := base.NumShards() * sb
			if got := (Options{}).batchStripes(stripeBytes, base.Stripes); got != in.dflt {
				t.Fatalf("default batch holds %d stripes, want %d", got, in.dflt)
			}
			if got := (Options{Workers: 4}).batchStripes(stripeBytes, base.Stripes); got != in.fourWorkers {
				t.Fatalf("Workers: 4 batch holds %d stripes, want %d", got, in.fourWorkers)
			}
			baseShards := make([][]byte, base.NumShards())
			for i := range baseShards {
				b, err := os.ReadFile(filepath.Join(baseDir, base.ShardName(i)))
				if err != nil {
					t.Fatal(err)
				}
				baseShards[i] = b
			}

			for _, opt := range []Options{
				{},
				{Workers: 4},
				{BatchStripes: 1},
				{BatchStripes: 3},
				{Workers: 4, BatchStripes: 2},
				{Workers: -1, BatchStripes: 1000},
			} {
				name := fmt.Sprintf("workers=%d/batch=%d", opt.Workers, opt.BatchStripes)
				dir := t.TempDir()
				m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, in.elem, dir, opt)
				if err != nil {
					t.Fatalf("%s: EncodeOpts: %v", name, err)
				}
				for i := range baseShards {
					got, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, baseShards[i]) {
						t.Fatalf("%s: shard %d differs from the one-stripe-batch shard", name, i)
					}
				}
				if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if _, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, opt); err != nil {
					t.Fatalf("%s: DecodeReport: %v", name, err)
				}
				if !bytes.Equal(out.Bytes(), content) {
					t.Fatalf("%s: decode output differs from original", name)
				}
			}
		})
	}
}

// crcWriter consumes a decode stream without retaining it, so the
// bounded-memory test measures the pipeline's allocations, not the
// output buffer's.
type crcWriter struct {
	sum uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	w.n += int64(len(p))
	return len(p), nil
}

// TestConcurrentStreamsSharePools runs encodes, decodes and repairs of
// one shape from several goroutines at once. They share the batch and
// probe-buffer pools, so a batch handed to two operations at once shows
// up as wrong bytes here, or as a race under -race.
func TestConcurrentStreamsSharePools(t *testing.T) {
	const k, elem, size = 4, 64, 4*5*64*9 + 50
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 5; iter++ {
				content := make([]byte, size)
				rng.Read(content)
				dir := t.TempDir()
				m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, 0, elem, dir,
					Options{BatchStripes: 2})
				if err != nil {
					t.Errorf("goroutine %d: EncodeOpts: %v", g, err)
					return
				}
				lost := filepath.Join(dir, m.ShardName(rng.Intn(m.NumShards())))
				golden, err := os.ReadFile(lost)
				if err != nil {
					t.Error(err)
					return
				}
				if err := os.Remove(lost); err != nil {
					t.Error(err)
					return
				}
				manifest := filepath.Join(dir, ManifestName(m.FileName))
				var out bytes.Buffer
				if _, err := DecodeReport(manifest, &out, Options{BatchStripes: 2}); err != nil {
					t.Errorf("goroutine %d: DecodeReport: %v", g, err)
					return
				}
				if !bytes.Equal(out.Bytes(), content) {
					t.Errorf("goroutine %d: decode output differs from the original", g)
					return
				}
				if _, err := RepairOpts(manifest, Options{BatchStripes: 2}); err != nil {
					t.Errorf("goroutine %d: RepairOpts: %v", g, err)
					return
				}
				if got, err := os.ReadFile(lost); err != nil || !bytes.Equal(got, golden) {
					t.Errorf("goroutine %d: repaired shard differs from its original bytes (%v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// raceSlack is what one operation may allocate beyond its steady-state
// budget under the race detector, which drops pooled items at random: a
// fresh batch of m's default shape for each of the batches the operation
// holds at once (two for a decode that reads ahead, one for a stream of
// at most inlineBatches batches), plus a probe buffer when the operation
// probes. It is 0 in ordinary builds.
func raceSlack(m *Manifest, batches int, probes bool) uint64 {
	if !raceEnabled {
		return 0
	}
	sb, _ := m.shardShape()
	slack := uint64(batches * m.NumShards() * sb * (Options{}).batchStripes(m.NumShards()*sb, m.Stripes))
	if probes {
		slack += probeBufSize
	}
	return slack
}

// TestDecodeBoundedMemory proves that decode memory does not grow with
// the file: decoding a 64 MiB file with one shard erased reads every
// shard into two pooled batches (one read ahead while the other is
// decoded), so a warm decode allocates only bookkeeping, far below one
// batch (about 1 MiB here). A first decode primes the pools so the measured pass
// shows steady-state behaviour.
func TestDecodeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB file")
	}
	const size = 64 << 20
	const k, elem = 4, 4096
	dir := t.TempDir()
	content := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(content)
	wantCRC := crc32.ChecksumIEEE(content)
	m, err := EncodeOpts(bytes.NewReader(content), size, "big.bin", k, 0, elem, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	content = nil
	if err := os.Remove(filepath.Join(dir, m.ShardName(2))); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, ManifestName(m.FileName))

	decodeOnce := func() *crcWriter {
		w := &crcWriter{}
		if _, err := DecodeReport(manifest, w, Options{}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Pools cache per P and two GC cycles empty them: pin one P and warm
	// up after collecting, so the measured pass reuses what the warm-up
	// put back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	decodeOnce() // warm the pools and file cache

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := decodeOnce()
	runtime.ReadMemStats(&after)

	if w.n != size || w.sum != wantCRC {
		t.Fatalf("decoded %d bytes crc %08x, want %d bytes crc %08x", w.n, w.sum, size, wantCRC)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	budget := 256<<10 + raceSlack(m, 2, true)
	if alloc > budget {
		t.Fatalf("decode of %d MiB allocated %d KiB, want < %d KiB", size>>20, alloc>>10, budget>>10)
	}
	t.Logf("decode of %d MiB allocated %d KiB", size>>20, alloc>>10)
}

// TestProbeReusesScratch: the checksum probe borrows its 128 KiB read
// buffer from a pool, so a warm Verify (a probe and nothing else)
// allocates far less than the buffer.
func TestProbeReusesScratch(t *testing.T) {
	dir, _, m := encodeTestFile(t, 4*5*64*20, 4, 0, 64)
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see TestDecodeBoundedMemory
	runtime.GC()
	if err := Verify(manifest, Options{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Verify(manifest, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	budget := uint64(probeBufSize / 4)
	if raceEnabled {
		budget += probeBufSize
	}
	if alloc > budget {
		t.Fatalf("Verify allocated %d KiB, want < %d KiB", alloc>>10, budget>>10)
	}
	t.Logf("Verify allocated %d KiB", alloc>>10)
}

// TestEncodeBoundedAllocation is the encode counterpart: a warm encode
// of a 256 KiB object takes its batch from the pool and writes every
// column straight from it, so it allocates only bookkeeping (file
// handles, the manifest), far below the object or its batch.
func TestEncodeBoundedAllocation(t *testing.T) {
	const size, runs = 256 << 10, 10
	content := make([]byte, size)
	rand.New(rand.NewSource(8)).Read(content)
	dir := t.TempDir()
	encodeOnce := func() *Manifest {
		m, err := EncodeOpts(bytes.NewReader(content), size, "obj.bin", 4, 0, 4096, dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see TestDecodeBoundedMemory
	runtime.GC()
	m := encodeOnce() // warm the pool
	encodeOnce()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		encodeOnce()
	}
	runtime.ReadMemStats(&after)

	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	budget := 256<<10 + raceSlack(m, 1, false)
	if perOp > budget {
		t.Fatalf("encode of %d KiB allocated %d KiB per op, want < %d KiB", size>>10, perOp>>10, budget>>10)
	}
	t.Logf("encode of %d KiB allocated %d KiB per op", size>>10, perOp>>10)
}

// failingReader errors after a fixed number of bytes, mid-stream.
type failingReader struct {
	r    io.Reader
	left int64
}

var errInjected = errors.New("injected read failure")

func (f *failingReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errInjected
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	return n, err
}

// halfWriteStore creates files whose WriteAt persists the first half of
// its buffer and reports success, breaking io.WriterAt's contract.
type halfWriteStore struct{ store.Store }

func (s halfWriteStore) Create(path string) (store.File, error) {
	f, err := s.Store.Create(path)
	if err != nil {
		return nil, err
	}
	return halfWriteFile{f}, nil
}

type halfWriteFile struct{ store.File }

func (f halfWriteFile) WriteAt(p []byte, off int64) (int, error) {
	return f.File.WriteAt(p[:len(p)/2], off)
}

// TestEncodeCleansUpOnError checks the tentpole's failure contract: an
// encode that dies mid-stream (reader error, both serial and parallel,
// or a column write that lands short without an error) must remove
// every shard file it created and write no manifest.
func TestEncodeCleansUpOnError(t *testing.T) {
	const size = 4 * 5 * 64 * 50 // 50 stripes, fails partway
	content := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(content)
	failing := func() io.Reader { return &failingReader{r: bytes.NewReader(content), left: size / 3} }
	whole := func() io.Reader { return bytes.NewReader(content) }
	for _, tc := range []struct {
		name string
		r    func() io.Reader
		opt  Options
		want error
	}{
		{"read/serial", failing, Options{}, errInjected},
		{"read/parallel", failing, Options{Workers: 4, BatchStripes: 2}, errInjected},
		{"short-write", whole, Options{Store: halfWriteStore{store.OS{}}}, io.ErrShortWrite},
	} {
		dir := t.TempDir()
		_, err := EncodeOpts(tc.r(), size, "blob.bin", 4, 0, 64, dir, tc.opt)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s: leftover file %q after failed encode", tc.name, e.Name())
		}
	}
}

// TestCancelledContextStops: a cancelled Options.Context stops encode,
// decode (erasure and heal rungs) and repair on a healthy store, with or
// without the parallel split, and the error wraps context.Canceled. A
// stopped encode leaves no shard behind and a stopped repair no temp file.
// The heal row decodes a version 4 set: only there does Heal reach the
// correction rung (a version 5 decode checks strips in its erasure rung).
func TestCancelledContextStops(t *testing.T) {
	const size = 4 * 5 * 64 * 20
	content := make([]byte, size)
	rand.New(rand.NewSource(9)).Read(content)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range []struct {
		op   string
		lose bool // remove data shard 1 of an encoded set first
		v4   bool // rewrite the encoded set's manifest as version 4 first
		run  func(dir, manifest string, opt Options) error
	}{
		{"encode", false, false, func(dir, _ string, opt Options) error {
			_, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, 64, dir, opt)
			return err
		}},
		{"decode/lost", true, false, func(_, manifest string, opt Options) error {
			_, err := DecodeReport(manifest, io.Discard, opt)
			return err
		}},
		{"decode/heal", false, true, func(_, manifest string, opt Options) error {
			opt.Heal = true
			_, err := DecodeReport(manifest, io.Discard, opt)
			return err
		}},
		{"repair/lost", true, false, func(_, manifest string, opt Options) error {
			_, err := RepairOpts(manifest, opt)
			return err
		}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", row.op, workers), func(t *testing.T) {
				dir := t.TempDir()
				manifest := filepath.Join(dir, ManifestName("blob.bin"))
				if row.op != "encode" {
					m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, 64, dir, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if row.lose {
						if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
							t.Fatal(err)
						}
					}
					if row.v4 {
						asVersion4(t, dir, m)
					}
				}
				err := row.run(dir, manifest, Options{Workers: workers, Context: cancelled})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				entries, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if row.op == "encode" || strings.HasSuffix(e.Name(), ".repair") {
						t.Errorf("leftover file %q after a cancelled %s", e.Name(), row.op)
					}
				}
			})
		}
	}
}

// cancelWriter takes every byte it is given and cancels its context on
// the first write.
type cancelWriter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	w.cancel()
	return len(p), nil
}

// TestContextCancelledMidStream: a context cancelled while a degraded
// decode is under way, serial or split over workers, stops it before its
// next batch. The output holds exactly the first batch and the error
// wraps context.Canceled.
func TestContextCancelledMidStream(t *testing.T) {
	const (
		stripeBytes = 4 * 5 * 64 // k=4, p=5, 64-byte elements
		size        = 20 * stripeBytes
		batch       = 4 // stripes per batch
	)
	content := make([]byte, size)
	rand.New(rand.NewSource(10)).Read(content)
	dir := t.TempDir()
	m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, 64, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &cancelWriter{cancel: cancel}
			_, err := DecodeReport(filepath.Join(dir, ManifestName("blob.bin")), w,
				Options{Workers: workers, BatchStripes: batch, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if w.n != batch*stripeBytes {
				t.Errorf("wrote %d bytes before stopping, want one batch (%d)", w.n, batch*stripeBytes)
			}
		})
	}
}

// TestEncodeShortReaderFails pins the size reconciliation: a reader that
// runs dry before the declared size is an error, and still cleans up.
func TestEncodeShortReaderFails(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 1000)
	_, err := EncodeOpts(bytes.NewReader(content), 5000, "blob.bin", 4, 0, 64, dir, Options{})
	if err == nil {
		t.Fatal("EncodeOpts with short reader succeeded, want error")
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		t.Errorf("leftover file %q after short-read encode", e.Name())
	}
}

// TestDecodeDetectsMidStreamCorruption checks the rolling-CRC defense:
// a shard whose content lies between the probe and the streaming read
// (here: a read-path bit-flip injected after the probe's checksum pass)
// must not silently feed stale bytes into the output — the self-healing
// decode quarantines it and restarts without it.
func TestDecodeDetectsMidStreamCorruption(t *testing.T) {
	dir, content, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
	asVersion4(t, dir, m)

	// Shard d01 is smaller than one probe buffer, so the probe costs
	// exactly one read; After:1 makes the single bit-flip land on the
	// streaming read instead.
	faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 7, Rules: []faultstore.Rule{
		{Path: m.ShardName(1), Op: faultstore.OpRead, Kind: faultstore.BitFlip, Prob: 1, Count: 1, After: 1},
	}})
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), out,
		Options{Store: faulty})
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if rep.Attempts < 2 {
		t.Errorf("attempts = %d, want a quarantine restart", rep.Attempts)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 1 {
		t.Errorf("quarantined = %v, want [1]", rep.Quarantined)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("self-healed decode differs from the original")
	}
}

// TestDecodeDetectsMidStreamCorruptionV5 is the version 5 twin of
// TestDecodeDetectsMidStreamCorruption. The read-path bit-flip lands on
// the stream's one read of d01 (there is no probe read), and the strip
// it hits fails its strip sum before its stripe is decoded or written:
// that strip is erased, so a writer that cannot rewind gets the
// original bytes in one attempt, with d01 quarantined and nothing
// corrected.
func TestDecodeDetectsMidStreamCorruptionV5(t *testing.T) {
	dir, content, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
	faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 7, Rules: []faultstore.Rule{
		{Path: m.ShardName(1), Op: faultstore.OpRead, Kind: faultstore.BitFlip, Prob: 1, Count: 1},
	}})
	var out bytes.Buffer
	rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), struct{ io.Writer }{&out},
		Options{Store: faulty})
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("decode differs from the original")
	}
	if rep.Attempts != 1 || rep.Corrections != 0 || fmt.Sprint(rep.Quarantined) != "[1]" {
		t.Errorf("%d attempts, %d corrections, quarantined %v; want 1, 0, [1]",
			rep.Attempts, rep.Corrections, rep.Quarantined)
	}
	if rep.Status[1].State != StateCorrupt || !rep.Degraded {
		t.Errorf("shard 1 reported %v, degraded %v; want corrupt and a degraded decode",
			rep.Status[1].State, rep.Degraded)
	}
}

// TestDecodeStripeBeyondBudgetV5: on a version 5 set, a stripe with more
// than m strips failing their sums ends the decode in an
// *UnrecoverableError before that stripe's batch reaches the writer, so
// the output holds exactly the batches before it, and the failing shards
// are reported corrupt. Serial and split over workers.
func TestDecodeStripeBeyondBudgetV5(t *testing.T) {
	const stripeBytes = 4 * 5 * 64 // k=4, p=5, 64-byte elements
	dir, content, m := encodeTestFile(t, 8*stripeBytes, 4, 0, 64)
	sb, _ := m.shardShape()
	for _, i := range []int{0, 2, m.K} { // three strips of stripe 5
		path := filepath.Join(dir, m.ShardName(i))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[5*sb+i] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var out bytes.Buffer
			rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), struct{ io.Writer }{&out},
				Options{Workers: workers, BatchStripes: 2})
			var unrec *UnrecoverableError
			if !errors.As(err, &unrec) {
				t.Fatalf("err = %v, want *UnrecoverableError", err)
			}
			// Stripe 5 is in the third batch of two stripes.
			if !bytes.Equal(out.Bytes(), content[:4*stripeBytes]) {
				t.Errorf("wrote %d bytes, want the first two batches (%d bytes) and nothing after", out.Len(), 4*stripeBytes)
			}
			if fmt.Sprint(rep.Quarantined) != fmt.Sprint([]int{0, 2, m.K}) {
				t.Errorf("quarantined %v, want [0 2 %d]", rep.Quarantined, m.K)
			}
			if got := unrec.Failed(); fmt.Sprint(got) != fmt.Sprint([]int{0, 2, m.K}) {
				t.Errorf("error names shards %v, want [0 2 %d]", got, m.K)
			}
		})
	}
}

// TestDecodeChecksReconstructedStripsV5: every strip a version 5 decode
// reconstructs must match its strip sum as well. With data shard 1 lost
// and its sum for stripe 2 altered in the manifest (the last sum still
// matches the shard's checksum, so the manifest loads), the decode ends
// in an *UnrecoverableError before the batch holding stripe 2 is
// written.
func TestDecodeChecksReconstructedStripsV5(t *testing.T) {
	const stripeBytes = 4 * 5 * 64 // k=4, p=5, 64-byte elements
	dir, content, m := encodeTestFile(t, 8*stripeBytes, 4, 0, 64)
	if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
		t.Fatal(err)
	}
	lying := *m
	lying.StripSums = append([][]byte(nil), m.StripSums...)
	lying.StripSums[1] = append([]byte(nil), m.StripSums[1]...)
	lying.StripSums[1][4*2] ^= 0x80
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	if err := writeManifest(store.OS{}, &lying, manifest); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err := DecodeReport(manifest, struct{ io.Writer }{&out}, Options{BatchStripes: 2})
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) || !strings.Contains(unrec.Reason, "reconstructed shard 1") {
		t.Fatalf("err = %v, want *UnrecoverableError naming reconstructed shard 1", err)
	}
	if !bytes.Equal(out.Bytes(), content[:2*stripeBytes]) {
		t.Errorf("wrote %d bytes, want the first batch (%d bytes) and nothing after", out.Len(), 2*stripeBytes)
	}
}

// readAtStore wraps a store so that every file it opens answers ReadAt
// through fn, to drive the data path through io.ReaderAt behaviours the
// OS store never shows.
type readAtStore struct {
	store.Store
	fn func(path string, f store.File, p []byte, off int64) (int, error)
}

func (s readAtStore) Open(path string) (store.File, error) {
	f, err := s.Store.Open(path)
	if err != nil {
		return nil, err
	}
	return readAtFile{File: f, path: path, fn: s.fn}, nil
}

type readAtFile struct {
	store.File
	path string
	fn   func(path string, f store.File, p []byte, off int64) (int, error)
}

func (f readAtFile) ReadAt(p []byte, off int64) (int, error) { return f.fn(f.path, f.File, p, off) }

// TestReadAtContract pins the streaming reads to io.ReaderAt's contract.
// A read that fills its buffer up to the end of the file may report
// io.EOF, and that must change nothing. A read that returns fewer bytes
// than asked for is a failure even when it reports no error: the shard
// must be quarantined (a restart without it, or a typed error), never
// streamed with bytes it did not deliver.
func TestReadAtContract(t *testing.T) {
	dir, content, m := encodeTestFile(t, 4*5*64*50+77, 4, 0, 64)
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	golden := make([][]byte, m.NumShards())
	for i := range golden {
		b, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = b
	}
	restore := func(t *testing.T) {
		t.Helper()
		for i, b := range golden {
			if err := os.WriteFile(filepath.Join(dir, m.ShardName(i)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeManifest(store.OS{}, m, manifest); err != nil {
			t.Fatal(err)
		}
	}
	checkShards := func(t *testing.T) {
		t.Helper()
		for i, want := range golden {
			got, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shard %d differs from its original bytes", i)
			}
		}
	}
	decodeTo := func(t *testing.T, opt Options) (*Report, []byte, error) {
		t.Helper()
		out, err := os.Create(filepath.Join(t.TempDir(), "out"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		rep, err := DecodeReport(manifest, out, opt)
		got, readErr := os.ReadFile(out.Name())
		if readErr != nil {
			t.Fatal(readErr)
		}
		return rep, got, err
	}

	t.Run("full read with EOF", func(t *testing.T) {
		defer restore(t)
		eofAtEnd := readAtStore{Store: store.OS{}, fn: func(_ string, f store.File, p []byte, off int64) (int, error) {
			n, err := f.ReadAt(p, off)
			if size, _ := f.Size(); err == nil && off+int64(n) == size {
				err = io.EOF
			}
			return n, err
		}}
		for _, e := range []int{1, m.K + 1} {
			if err := os.Remove(filepath.Join(dir, m.ShardName(e))); err != nil {
				t.Fatal(err)
			}
		}
		for _, opt := range []Options{{Store: eofAtEnd}, {Store: eofAtEnd, BatchStripes: 7}} {
			rep, got, err := decodeTo(t, opt)
			if err != nil {
				t.Fatalf("batch=%d: DecodeReport: %v", opt.BatchStripes, err)
			}
			if rep.Attempts != 1 || !bytes.Equal(got, content) {
				t.Fatalf("batch=%d: %d attempts, output equal %v; want 1 attempt and the original",
					opt.BatchStripes, rep.Attempts, bytes.Equal(got, content))
			}
		}
		repaired, err := RepairOpts(manifest, Options{Store: eofAtEnd})
		if err != nil {
			t.Fatalf("RepairOpts: %v", err)
		}
		if fmt.Sprint(repaired) != fmt.Sprint([]int{1, m.K + 1}) {
			t.Fatalf("repaired %v, want [1 %d]", repaired, m.K+1)
		}
		checkShards(t)
		// The correction rung streams every column, parity included. Heal
		// reaches it on a version 4 set only; restore puts the version 5
		// manifest back.
		asVersion4(t, dir, m)
		rep, got, err := decodeTo(t, Options{Store: eofAtEnd, Heal: true})
		if err != nil || rep.Attempts != 1 || !bytes.Equal(got, content) {
			t.Fatalf("heal decode: err %v, %d attempts, output equal %v", err, rep.Attempts, bytes.Equal(got, content))
		}
	})

	// halfReads answers every read of more than one byte on the named
	// shards with its first half and no error. The probe's sequential
	// reader tolerates that (it reads on); the streaming read must not.
	halfReads := func(names ...string) store.Store {
		return readAtStore{Store: store.OS{}, fn: func(path string, f store.File, p []byte, off int64) (int, error) {
			for _, name := range names {
				if filepath.Base(path) == name && len(p) > 1 {
					p = p[:len(p)/2]
				}
			}
			return f.ReadAt(p, off)
		}}
	}

	t.Run("short read quarantines", func(t *testing.T) {
		rep, got, err := decodeTo(t, Options{Store: halfReads(m.ShardName(1))})
		if err != nil {
			t.Fatalf("DecodeReport: %v", err)
		}
		if rep.Attempts != 2 || fmt.Sprint(rep.Quarantined) != "[1]" {
			t.Fatalf("attempts %d, quarantined %v; want a restart without shard 1", rep.Attempts, rep.Quarantined)
		}
		if !errors.Is(rep.Status[1].Err, io.ErrUnexpectedEOF) {
			t.Fatalf("shard 1 quarantined for %v, want the short read", rep.Status[1].Err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("decode output differs from the original")
		}
	})

	t.Run("short read during repair", func(t *testing.T) {
		defer restore(t)
		if err := os.Remove(filepath.Join(dir, m.ShardName(3))); err != nil {
			t.Fatal(err)
		}
		repaired, err := RepairOpts(manifest, Options{Store: halfReads(m.ShardName(1))})
		if err != nil {
			t.Fatalf("RepairOpts: %v", err)
		}
		if fmt.Sprint(repaired) != "[1 3]" {
			t.Fatalf("repaired %v, want [1 3]: the short-reading shard is rebuilt too", repaired)
		}
		checkShards(t)
	})

	t.Run("short reads everywhere", func(t *testing.T) {
		names := make([]string, m.NumShards())
		for i := range names {
			names[i] = m.ShardName(i)
		}
		rep, _, err := decodeTo(t, Options{Store: halfReads(names...)})
		var unrec *UnrecoverableError
		if !errors.As(err, &unrec) {
			t.Fatalf("err = %v, want *UnrecoverableError", err)
		}
		if len(rep.Quarantined) != m.M+1 {
			t.Fatalf("quarantined %v, want %d shards before giving up", rep.Quarantined, m.M+1)
		}
	})
}
