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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// The tests in this file decode with Options.BatchStripes = 1 over sets
// of at least six stripes, so every decode spans more than inlineBatches
// batches and reads ahead.

// guardStore wraps the OS store. Every file it opens hands each read to
// fault first, when set, which may delay or fail it, and then fails the
// test if the file has been closed (a reader that outlived its attempt).
type guardStore struct {
	store.Store
	t     *testing.T
	fault func(name string, off int64) error
}

func newGuardStore(t *testing.T, fault func(name string, off int64) error) *guardStore {
	return &guardStore{Store: store.OS{}, t: t, fault: fault}
}

func (g *guardStore) Open(path string) (store.File, error) {
	f, err := g.Store.Open(path)
	if err != nil {
		return nil, err
	}
	return &guardFile{File: f, g: g, name: filepath.Base(path)}, nil
}

type guardFile struct {
	store.File
	g      *guardStore
	name   string
	closed atomic.Bool
}

func (f *guardFile) ReadAt(p []byte, off int64) (int, error) {
	if f.g.fault != nil {
		if err := f.g.fault(f.name, off); err != nil {
			return 0, err
		}
	}
	if f.closed.Load() {
		f.g.t.Errorf("ReadAt(%s, offset %d) after Close", f.name, off)
	}
	return f.File.ReadAt(p, off)
}

func (f *guardFile) Close() error {
	f.closed.Store(true)
	return f.File.Close()
}

// checkGoroutines fails the test unless the goroutine count falls back
// to before. A goroutine that has signalled its WaitGroup may still be
// exiting, so the count gets a moment to settle.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines after the decode, %d before: one outlived it", after, before)
	}
}

// flipStrip flips one byte of stripe s of shard i in dir.
func flipStrip(t *testing.T, dir string, m *Manifest, i, s int) {
	t.Helper()
	path := filepath.Join(dir, m.ShardName(i))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := m.shardShape()
	b[s*sb+sb/3] ^= 0x04
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readAheadSet encodes eight stripes with liberation at k=4, p=5 and
// 64-byte elements; with one stripe per batch, batch j is stripe j.
func readAheadSet(t *testing.T) (dir string, content []byte, m *Manifest, stripeBytes int) {
	t.Helper()
	const k, elem = 4, 64
	stripeBytes = k * 5 * elem
	dir, content, m = encodeTestFile(t, int64(8*stripeBytes), k, 0, elem)
	return dir, content, m, stripeBytes
}

// TestReadAheadDecodeFamilies decodes every registered code through the
// read-ahead path, version 5 (strip checks, erasure rung) and version 4
// with Heal (checksummed probe; the correction rung where the code has
// one), at one and four workers: with 0…m shards lost and, while the
// budget allows, one flipped strip in the second-to-last batch of a
// survivor. The output into a writer that cannot rewind is the original
// in one attempt, the flipped shard is the one quarantined, no file is
// read after it is closed, and no goroutine outlives the decode.
func TestReadAheadDecodeFamilies(t *testing.T) {
	for _, name := range codes.Names() {
		t.Run(name, func(t *testing.T) {
			const k, elem = 3, 32
			code, err := codes.New(name, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			size := int64(k*code.W()*elem*7 + 5) // 8 stripes
			content := make([]byte, size)
			rand.New(rand.NewSource(size)).Read(content)
			dir := t.TempDir()
			m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, 0, elem, dir, Options{Code: name})
			if err != nil {
				t.Fatal(err)
			}
			golden := readShards(t, dir, m)
			manifest := filepath.Join(dir, ManifestName(m.FileName))
			// Lost shards: data shard 1, then parities from the last.
			lostOrder := []int{1}
			for i := m.NumShards() - 1; len(lostOrder) < m.M; i-- {
				lostOrder = append(lostOrder, i)
			}
			for _, v4 := range []bool{false, true} {
				for lost := 0; lost <= m.M; lost++ {
					for _, workers := range []int{1, 4} {
						t.Run(fmt.Sprintf("v4=%v/lost=%d/workers=%d", v4, lost, workers), func(t *testing.T) {
							for i, b := range golden {
								if err := os.WriteFile(filepath.Join(dir, m.ShardName(i)), b, 0o644); err != nil {
									t.Fatal(err)
								}
							}
							if err := writeManifest(store.OS{}, m, manifest); err != nil {
								t.Fatal(err)
							}
							if v4 {
								asVersion4(t, dir, m)
							}
							for _, i := range lostOrder[:lost] {
								if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
									t.Fatal(err)
								}
							}
							var wantQuarantined []int
							if lost < m.M {
								flipStrip(t, dir, m, 0, m.Stripes-2)
								wantQuarantined = []int{0}
							}
							before := runtime.NumGoroutine()
							var out bytes.Buffer
							rep, err := DecodeReport(manifest, struct{ io.Writer }{&out}, Options{
								Store: newGuardStore(t, nil), Workers: workers, BatchStripes: 1, Heal: v4})
							checkGoroutines(t, before)
							if err != nil {
								t.Fatalf("DecodeReport: %v", err)
							}
							if !bytes.Equal(out.Bytes(), content) {
								t.Fatal("decode output differs from the original")
							}
							if rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != fmt.Sprint(wantQuarantined) {
								t.Errorf("%d attempts, quarantined %v; want 1, %v", rep.Attempts, rep.Quarantined, wantQuarantined)
							}
						})
					}
				}
			}
		})
	}
}

// TestReadAheadErrorOrder: the first error in stripe order wins, not the
// first to arrive. Stripe 2 of a version 5 set has three strips failing
// their sums, one beyond the budget, while the reader, one batch ahead,
// meets either a read that fails or a flipped strip of another shard in
// batch 3. The decode ends in stripe 2's *UnrecoverableError, the writer
// has exactly batches 0–1, and only stripe 2's shards are reported: batch
// 3's failure is the reader's alone and is dropped. Nothing is read past
// batch 3, and nothing after the attempt has closed its files, even when
// the reader is slow.
func TestReadAheadErrorOrder(t *testing.T) {
	dir, content, m, stripeBytes := readAheadSet(t)
	sb, _ := m.shardShape()
	for _, i := range []int{0, 2, m.K} {
		flipStrip(t, dir, m, i, 2)
	}
	clean := readShards(t, dir, m)
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	for _, tc := range []struct {
		name  string
		flip  bool                               // flip stripe 3 of shard 1
		fault func(name string, off int64) error // see guardStore
	}{
		{"read-fault", false, func(name string, off int64) error {
			if name == m.ShardName(1) && off == int64(3*sb) {
				return store.NewPermanent("read", name, errInjected)
			}
			return nil
		}},
		{"flipped-strip", true, func(name string, off int64) error {
			if name == m.ShardName(0) && off == int64(3*sb) {
				// The reader dawdles in batch 3, so one that is not
				// joined reads on after its attempt closed the files.
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				defer func() {
					if err := os.WriteFile(filepath.Join(dir, m.ShardName(1)), clean[1], 0o644); err != nil {
						t.Fatal(err)
					}
				}()
				if tc.flip {
					flipStrip(t, dir, m, 1, 3)
				}
				var mu sync.Mutex
				var last int64
				fault := func(name string, off int64) error {
					mu.Lock()
					last = max(last, off)
					mu.Unlock()
					if tc.fault != nil {
						return tc.fault(name, off)
					}
					return nil
				}
				before := runtime.NumGoroutine()
				var out bytes.Buffer
				rep, err := DecodeReport(manifest, struct{ io.Writer }{&out},
					Options{Store: newGuardStore(t, fault), Workers: workers, BatchStripes: 1})
				checkGoroutines(t, before)
				var unrec *UnrecoverableError
				if !errors.As(err, &unrec) || !strings.Contains(unrec.Reason, "stripe 2:") {
					t.Fatalf("err = %v, want stripe 2's *UnrecoverableError", err)
				}
				if !bytes.Equal(out.Bytes(), content[:2*stripeBytes]) {
					t.Errorf("wrote %d bytes, want batches 0-1 (%d bytes)", out.Len(), 2*stripeBytes)
				}
				want := fmt.Sprint([]int{0, 2, m.K})
				if fmt.Sprint(rep.Quarantined) != want || fmt.Sprint(unrec.Failed()) != want {
					t.Errorf("quarantined %v, error names %v; want %s", rep.Quarantined, unrec.Failed(), want)
				}
				if last > int64(3*sb) {
					t.Errorf("read at offset %d: more than one batch past stripe 2", last)
				}
			})
		}
	}
}

// TestDecodeErrorOrderWithinBatch: within one batch, too, the first
// failing stripe's error wins. On a version 5 set data shard 1 is lost
// and its stripe-1 strip sum altered, so its reconstruction fails in
// stripe 1, while stripe 3 has the strips of shards 0 and 2 flipped, one
// beyond the budget. Whatever the batch size and worker count, the
// decode ends in stripe 1's error alone, quarantines nothing (stripe 3
// is never reported), and the writer has only the whole batches before
// stripe 1's.
func TestDecodeErrorOrderWithinBatch(t *testing.T) {
	dir, content, m, stripeBytes := readAheadSet(t)
	if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
		t.Fatal(err)
	}
	m.StripSums[1][4*1] ^= 0xff
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	if err := writeManifest(store.OS{}, m, manifest); err != nil {
		t.Fatal(err)
	}
	flipStrip(t, dir, m, 0, 3)
	flipStrip(t, dir, m, 2, 3)
	for _, batchStripes := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("batch=%d/workers=%d", batchStripes, workers), func(t *testing.T) {
				var out bytes.Buffer
				rep, err := DecodeReport(manifest, struct{ io.Writer }{&out},
					Options{Workers: workers, BatchStripes: batchStripes})
				var unrec *UnrecoverableError
				if !errors.As(err, &unrec) || unrec.Reason != "stripe 1: reconstructed shard 1 fails its strip sum" {
					t.Fatalf("err = %v, want stripe 1's reconstructed strip sum failure alone", err)
				}
				if len(rep.Quarantined) != 0 {
					t.Errorf("quarantined %v, want none", rep.Quarantined)
				}
				whole := 1 / batchStripes * batchStripes // stripes in the batches before stripe 1's
				if !bytes.Equal(out.Bytes(), content[:whole*stripeBytes]) {
					t.Errorf("wrote %d bytes, want %d", out.Len(), whole*stripeBytes)
				}
			})
		}
	}
}

// TestReadAheadMidStreamReadFailure: a read of data shard 0 that fails
// in batch 3, on version 5 and version 4 sets. Into a rewindable writer
// the decode restarts once without the shard and writes the original;
// into a plain writer it fails with the read's typed fault after exactly
// batches 0–2, with the shard reported quarantined.
func TestReadAheadMidStreamReadFailure(t *testing.T) {
	dir, content, m, stripeBytes := readAheadSet(t)
	sb, _ := m.shardShape()
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	fault := func(name string, off int64) error {
		if name == m.ShardName(0) && off == int64(3*sb) {
			return store.NewPermanent("read", name, errInjected)
		}
		return nil
	}
	for _, v4 := range []bool{false, true} {
		if v4 {
			asVersion4(t, dir, m)
		}
		for _, workers := range []int{1, 4} {
			opt := func(t *testing.T) Options {
				return Options{Store: newGuardStore(t, fault), Workers: workers, BatchStripes: 1}
			}
			t.Run(fmt.Sprintf("v4=%v/workers=%d/rewindable", v4, workers), func(t *testing.T) {
				out, err := os.Create(filepath.Join(t.TempDir(), "out"))
				if err != nil {
					t.Fatal(err)
				}
				defer out.Close()
				before := runtime.NumGoroutine()
				rep, err := DecodeReport(manifest, out, opt(t))
				checkGoroutines(t, before)
				if err != nil {
					t.Fatalf("DecodeReport: %v", err)
				}
				got, err := os.ReadFile(out.Name())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, content) {
					t.Fatal("decode output differs from the original")
				}
				if rep.Attempts != 2 || fmt.Sprint(rep.Quarantined) != "[0]" {
					t.Errorf("%d attempts, quarantined %v; want 2, [0]", rep.Attempts, rep.Quarantined)
				}
			})
			t.Run(fmt.Sprintf("v4=%v/workers=%d/plain", v4, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				var out bytes.Buffer
				rep, err := DecodeReport(manifest, struct{ io.Writer }{&out}, opt(t))
				checkGoroutines(t, before)
				var fault *store.Fault
				if !errors.As(err, &fault) || !errors.Is(err, errInjected) {
					t.Fatalf("err = %v, want the read's *store.Fault", err)
				}
				if rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != "[0]" || rep.Status[0].State != StateQuarantined {
					t.Errorf("%d attempts, quarantined %v, shard 0 %v; want 1, [0], quarantined",
						rep.Attempts, rep.Quarantined, rep.Status[0].State)
				}
				if !bytes.Equal(out.Bytes(), content[:3*stripeBytes]) {
					t.Errorf("wrote %d bytes, want batches 0-2 (%d bytes)", out.Len(), 3*stripeBytes)
				}
			})
		}
	}
}

// batchCancelWriter takes every byte it is given and cancels its context
// once it has been given more than one stripe.
type batchCancelWriter struct {
	n, stripeBytes int
	cancel         context.CancelFunc
}

func (w *batchCancelWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.stripeBytes {
		w.cancel()
	}
	return len(p), nil
}

// TestReadAheadCancelFromWriter: a context cancelled by the writer while
// it takes batch 1 stops a read-ahead decode with context.Canceled after
// exactly batches 0–1. The reader, already filling batch 2, checks the
// context before its next fill, so no read lands past batch 2.
func TestReadAheadCancelFromWriter(t *testing.T) {
	dir, _, m, stripeBytes := readAheadSet(t)
	sb, _ := m.shardShape()
	if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			var last int64
			guard := newGuardStore(t, func(_ string, off int64) error {
				mu.Lock()
				defer mu.Unlock()
				last = max(last, off)
				return nil
			})
			w := &batchCancelWriter{stripeBytes: stripeBytes, cancel: cancel}
			before := runtime.NumGoroutine()
			_, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), w,
				Options{Store: guard, Workers: workers, BatchStripes: 1, Context: ctx})
			checkGoroutines(t, before)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if w.n != 2*stripeBytes {
				t.Errorf("wrote %d bytes, want batches 0-1 (%d)", w.n, 2*stripeBytes)
			}
			if last > int64(2*sb) {
				t.Errorf("read at offset %d: more than one batch past batch 1", last)
			}
		})
	}
}

// storeCall is one store call as the schedule test logs it.
type storeCall struct {
	op, name string
	off      int64
	failed   bool
}

// callLog wraps a store and logs every call, with its outcome, in the
// order the calls reach it.
type callLog struct {
	store.Store
	mu    sync.Mutex
	calls []storeCall
}

func (l *callLog) log(op, path string, off int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, storeCall{op, filepath.Base(path), off, err != nil})
}

func (l *callLog) Open(path string) (store.File, error) {
	f, err := l.Store.Open(path)
	l.log("open", path, 0, err)
	if err != nil {
		return nil, err
	}
	return &loggedFile{File: f, l: l, path: path}, nil
}

func (l *callLog) Create(path string) (store.File, error) {
	f, err := l.Store.Create(path)
	l.log("create", path, 0, err)
	if err != nil {
		return nil, err
	}
	return &loggedFile{File: f, l: l, path: path}, nil
}

func (l *callLog) Rename(oldPath, newPath string) error {
	err := l.Store.Rename(oldPath, newPath)
	l.log("rename", oldPath, 0, err)
	return err
}

func (l *callLog) Remove(path string) error {
	err := l.Store.Remove(path)
	l.log("remove", path, 0, err)
	return err
}

type loggedFile struct {
	store.File
	l    *callLog
	path string
}

func (f *loggedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.l.log("read", f.path, off, err)
	return n, err
}

func (f *loggedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.l.log("write", f.path, off, err)
	return n, err
}

func (f *loggedFile) Sync() error {
	err := f.File.Sync()
	f.l.log("sync", f.path, 0, err)
	return err
}

// TestSeededScheduleReplays pins what faultstore's Config.Seed promises:
// equal schedules for equal operation sequences. A decode that reads
// ahead, then a repair, of a multi-batch set under one seed and
// probabilistic read and write faults are run 20 times; every run must
// make the same store calls, in the same order, with the same outcomes,
// and end the same way. The store draws once per call from one PRNG, so
// the order of calls is the schedule. A decode's stream calls the store
// from its reader alone, so its order is fixed. Repair stays serial
// because its sink writes temp files through the store: reads on a
// second goroutine would interleave with those writes differently from
// run to run, and a failing chaos seed would no longer replay.
func TestSeededScheduleReplays(t *testing.T) {
	src, content, m, _ := readAheadSet(t)
	golden := readShards(t, src, m)
	dir := t.TempDir()
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	var first []storeCall
	var firstOutcome string
	for run := 0; run < 20; run++ {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		for i, b := range golden {
			if i != 2 { // data shard 2 is lost
				if err := os.WriteFile(filepath.Join(dir, m.ShardName(i)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := writeManifest(store.OS{}, m, manifest); err != nil {
			t.Fatal(err)
		}
		faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 23, Rules: []faultstore.Rule{
			{Op: faultstore.OpRead, Kind: faultstore.Transient, Prob: 0.2},
			{Op: faultstore.OpRead, Kind: faultstore.BitFlip, Prob: 0.05, Count: 1},
			{Op: faultstore.OpWrite, Kind: faultstore.Transient, Prob: 0.1},
			{Op: faultstore.OpWrite, Kind: faultstore.TornWrite, Prob: 0.1},
		}})
		l := &callLog{Store: faulty}
		opt := Options{Store: l, BatchStripes: 1,
			Retry: store.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: 23, Sleep: instantSleep}}
		out, err := os.Create(filepath.Join(t.TempDir(), "out"))
		if err != nil {
			t.Fatal(err)
		}
		rep, decodeErr := DecodeReport(manifest, out, opt)
		out.Close()
		decoded, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if decodeErr == nil && !bytes.Equal(decoded, content) {
			t.Fatalf("run %d: decode succeeded with wrong bytes", run)
		}
		repaired, repairErr := RepairOpts(manifest, opt)
		outcome := fmt.Sprintf("decode: %v, %d attempts, quarantined %v, output crc %08x; repair: %v, repaired %v",
			decodeErr, rep.Attempts, rep.Quarantined, crc32.ChecksumIEEE(decoded), repairErr, repaired)
		if run == 0 {
			first, firstOutcome = l.calls, outcome
			failed := 0
			for _, c := range first {
				if c.failed {
					failed++
				}
			}
			t.Logf("%d store calls, %d failed; %s", len(first), failed, outcome)
			continue
		}
		if outcome != firstOutcome {
			t.Fatalf("run %d ended %s; run 0 ended %s", run, outcome, firstOutcome)
		}
		if !slices.Equal(l.calls, first) {
			n := 0
			for n < min(len(l.calls), len(first)) && l.calls[n] == first[n] {
				n++
			}
			t.Fatalf("run %d made %d store calls, run 0 made %d; they differ from call %d on", run, len(l.calls), len(first), n)
		}
	}
}
