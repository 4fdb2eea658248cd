// Package shard applies the registry's erasure codes to whole files: a
// file is striped into k data shards plus the code's m parity shards
// (P and Q for the RAID-6 families), any m of which may be lost (or
// silently corrupted — detected via per-shard checksums) while the file
// remains recoverable. It is the library behind the raidcli tool and
// doubles as an end-to-end exercise of the public coding API.
//
// The data path is streaming in both directions, batch by batch. A batch
// is about 1 MiB of stripes laid out column by column, so each shard's
// part of it moves with one positional read or write, straight between
// the store and the batch. A stream of more than two batches overlaps
// its I/O with its coding: an encode runs read → encode → write as three
// stages around a ring of three batches (a reader goroutine fills batch
// N+1 while a coding goroutine encodes batch N and the caller writes
// batch N-1), and a decode reads batch N+1 on a second goroutine while
// the caller decodes and writes batch N. Streams of one or two batches,
// and every repair, run on the caller with one batch. Peak memory is at
// most three batches regardless of file size, plus the manifest's strip
// sums (4 bytes per strip per shard). Checksums verify
// every column while the stripes stream through. A version 5 manifest
// records the running CRC-32 of every shard at the end of every stripe,
// so decode checks each strip in the one read that streams it, before
// the stripe is decoded or written: a strip that fails is erased for
// that stripe alone, and the decode of a healthy set reads each shard
// once. Decodes of version 1–4 sets, which have only whole-shard
// checksums, decide shard health up front with a stat+checksum probe,
// because the writer cannot take back bytes it has been given. Repair
// writes temp files it renames only after the rolling CRCs match, so
// its first pass only stats the shards and reads each survivor once.
// When a survivor is corrupt, that pass's checksums name it and the
// repair restarts on them; only a failed read sends it back to the
// checksum probe.
//
// Every byte of I/O goes through a store.Store (see Options.Store), so
// the path is testable under injected faults, and it is self-healing:
// transient I/O errors are retried with capped exponential backoff,
// shards whose reads fail mid-stream are quarantined and the operation
// restarts without them, and silent corruption is erased strip by strip
// (version 5 decodes) or repaired in stream with the paper's
// CorrectColumn (repair, and decodes of older sets) — the degradation
// ladder is CRC quarantine → CorrectColumn → erasure decode → typed
// failure (see docs/ROBUSTNESS.md).
package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// manifestCode constructs the code a manifest was encoded with and
// cross-checks the manifest's recorded strip width against it, so a
// manifest that lies about its geometry fails before any shard I/O.
// Parameters the code rejects (a liberation p that is not an odd prime,
// say) are a bad manifest too.
func manifestCode(m *Manifest, reg *obs.Registry) (core.Code, error) {
	code, err := codes.NewObserved(m.Code, m.K, m.P, reg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrManifest, err)
	}
	if code.W() != m.widthElems() {
		return nil, fmt.Errorf("%w: code %q has %d elements per strip, manifest says %d",
			ErrManifest, m.Code, code.W(), m.widthElems())
	}
	if code.M() != m.M {
		return nil, fmt.Errorf("%w: code %q has %d parity shards, manifest says %d",
			ErrManifest, m.Code, code.M(), m.M)
	}
	return code, nil
}

// FormatVersion identifies the manifest/shard layout. Version 5 adds
// per-stripe checksums (StripSums); version 4 records the code's parity
// count m (earlier versions are implicitly m = 2); version 3 added an
// optional placement block, which no longer has a reader and is ignored
// on load; version 2 records the erasure code by registry name together
// with its strip width; version 1 manifests (implicitly Liberation)
// still load, as do versions 2 to 4. The version picks the
// decode path: version 5 checks every strip in stream, older versions
// probe every shard's checksum first.
const FormatVersion = 5

// Options tunes the streaming data path. The zero value is valid:
// serial coding, default batch size, no metrics, the real filesystem
// with the default retry policy.
type Options struct {
	// Workers sets how many goroutines code each batch's stripes: 0 or 1
	// code them in line, n > 1 splits each batch into up to n contiguous
	// runs coded concurrently, and <0 uses all cores. Encode and erasure
	// decode use it; the correction rung always runs in line.
	Workers int
	// BatchStripes is the number of stripes per streaming batch. Zero
	// sizes batches to about 1 MiB, with at least one stripe per worker.
	// Peak memory scales with it: one batch for repair and for any
	// stream of at most two batches, two for a longer decode (one read
	// ahead), three for a longer encode.
	BatchStripes int
	// Registry, when non-nil, receives shard.* spans, the encode
	// stage-wait histograms, and the queue-depth gauge, and is attached
	// to the underlying code (liberation.* spans).
	Registry *obs.Registry
	// Tracer, when non-nil, roots a causal trace per operation: every
	// retry, quarantine, CorrectColumn heal, and erasure fallback is a
	// child span/event with typed attributes, fanned out to the
	// tracer's sinks (event log, flight recorder). When Context already
	// carries an active trace the operation chains onto it instead.
	Tracer *obs.Tracer
	// Store is the filesystem the shards live on (nil = the real one).
	// Wrap it with faultstore.New to inject faults.
	Store store.Store
	// Retry bounds the retrying of transient store failures. The zero
	// value selects store.DefaultRetry; set MaxAttempts to 1 to disable
	// retries. Retry.AttemptTimeout is the per-op deadline: a store call
	// that hangs past it is abandoned and retried as a transient
	// KindTimeout fault instead of stalling the data path forever.
	Retry store.RetryPolicy
	// Context cancels the operation: encode, decode and repair stop
	// before their next batch with an error wrapping Context.Err(), and
	// in-flight I/O stops at its next backoff sleep between retries.
	// Nil means context.Background().
	Context context.Context
	// Heal makes the decode of a version 1–4 set scan every stripe with
	// the paper's single-column error correction even when the up-front
	// probe found all shards clean, catching read-path bit-flips at the
	// cost of one extra parity computation per stripe. (When the probe
	// quarantines checksum-corrupt shards, the correction path engages
	// regardless.) Codes without the core.ColumnCorrector capability skip
	// this rung and fall straight to erasure decode. A version 5 decode
	// ignores it: it verifies every strip it reads against the strip
	// sums, which catches read-path bit-flips without a parity scan.
	Heal bool
	// Code selects the erasure code by registry name for Encode (empty =
	// codes.Default, i.e. "liberation"). Decode, repair and verify take
	// the code from the manifest instead.
	Code string
}

func (o Options) codeName() string {
	if o.Code != "" {
		return o.Code
	}
	return codes.Default
}

func (o Options) workerCount() int {
	switch {
	case o.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case o.Workers == 0:
		return 1
	default:
		return o.Workers
	}
}

func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) retryPolicy() store.RetryPolicy {
	p := o.Retry
	if p.MaxAttempts == 0 {
		p = store.DefaultRetry
	}
	if p.Registry == nil {
		p.Registry = o.Registry
	}
	return p
}

// store returns the effective store: the configured (or OS) backend
// wrapped with the retry layer, so every open/read/write/rename/remove
// in the data path retries transient faults under the policy. Backends
// that can attribute their side effects causally (store.ContextBinder,
// i.e. the faultstore) are bound to ctx first, so injected faults and
// the retries they trigger land in the same trace.
func (o Options) store(ctx context.Context) store.Store {
	base := o.Store
	if base == nil {
		base = store.OS{}
	}
	if b, ok := base.(store.ContextBinder); ok {
		base = b.Bind(ctx)
	}
	// Byte accounting sits below the retry layer so re-issued attempts
	// bill their actual I/O — the counters show the true amplification of
	// a flaky device, not the logical transfer size.
	base = store.WithMetrics(base, o.Registry)
	return store.WithRetry(base, ctx, o.retryPolicy())
}

// clock returns the time to start a stage metric from: the zero time
// without a registry, so an unobserved stream reads no clock.
func clock(reg *obs.Registry) time.Time {
	if reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// since observes the seconds from t0, a stage's start from clock, in a
// stage histogram; a nil one (no registry) reads no clock.
func since(h *obs.LazyHistogram, t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Manifest describes an encoded shard set. It is stored as JSON next to
// the shards. Version 5 adds StripSums; version 4 records the parity
// count M (earlier versions imply M = 2); version 2 names the erasure
// code (a codes registry name) and its strip width W; version 1
// predates the registry and implies the Liberation code with W = P.
type Manifest struct {
	Version int    `json:"version"`
	Code    string `json:"code"` // codes registry name, e.g. "liberation"
	K       int    `json:"k"`
	// P is the prime parameter of the array codes (0 for codes without
	// one, or when it was auto-selected at encode time).
	P int `json:"p"`
	// M is the number of parity shards. Absent before version 4, where
	// every code was RAID-6 and it equals 2.
	M int `json:"m,omitempty"`
	// W is the number of elements per strip. Absent in version 1
	// manifests, where it equals P.
	W        int    `json:"w,omitempty"`
	ElemSize int    `json:"elem_size"`
	FileName string `json:"file_name"`
	FileSize int64  `json:"file_size"`
	Stripes  int    `json:"stripes"`
	// Checksums holds one CRC-32 (IEEE) per shard, indexed by strip
	// (0..k-1 data, then the m parity shards: k = P, k+1 = Q, ...).
	Checksums []uint32 `json:"checksums"`
	// StripSums (version 5) holds, for each shard in the order of
	// Checksums, the shard's running CRC-32 at the end of every stripe:
	// 4 bytes per stripe, big-endian, one base64 string per shard in the
	// JSON. The last sum equals the shard's checksum, and strip s checks
	// on its own as crc32.Update(sum[s-1], strip) == sum[s], with
	// sum[-1] = 0. Nil before version 5.
	StripSums [][]byte `json:"strip_sums,omitempty"`
}

// ShardName returns the file name of strip i's shard. Data strips are
// dNN, the first two parities keep their RAID-6 names p and q, and
// parities beyond the second are rNN, numbered on from the data strips
// (r04 is strip 6 at k = 4).
func (m *Manifest) ShardName(i int) string {
	switch {
	case i == m.K:
		return fmt.Sprintf("%s.shard.p", m.FileName)
	case i == m.K+1:
		return fmt.Sprintf("%s.shard.q", m.FileName)
	case i > m.K+1:
		return fmt.Sprintf("%s.shard.r%02d", m.FileName, i-2)
	default:
		return fmt.Sprintf("%s.shard.d%02d", m.FileName, i)
	}
}

// NumShards returns the total shard count, k + m.
func (m *Manifest) NumShards() int { return m.K + m.M }

// ManifestName returns the manifest file name for a given input name.
func ManifestName(fileName string) string { return fileName + ".manifest.json" }

// LoadManifest reads and validates a manifest file from the real
// filesystem.
func LoadManifest(path string) (*Manifest, error) {
	return loadManifest(store.OS{}, path)
}

// loadManifest reads and validates a manifest through a store.
func loadManifest(st store.Store, path string) (*Manifest, error) {
	f, err := st.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(store.SectionReader(f, size), data); err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrManifest, err)
	}
	switch m.Version {
	case 1:
		// Pre-registry layout: implicitly Liberation, strip width = p.
		if m.Code != "liberation" {
			return nil, fmt.Errorf("%w: version 1 supports only the liberation code, got %q",
				ErrManifest, m.Code)
		}
		m.W = m.P
		m.M = 2
	case 2, 3, 4, FormatVersion:
		if !codes.Known(m.Code) {
			return nil, fmt.Errorf("%w: unknown code %q (registered: %s)",
				ErrManifest, m.Code, strings.Join(codes.Names(), ", "))
		}
		if m.W <= 0 {
			return nil, fmt.Errorf("%w: missing strip width", ErrManifest)
		}
		if m.Version < 4 {
			// Every pre-v4 code was RAID-6.
			m.M = 2
		} else if m.M < 1 {
			return nil, fmt.Errorf("%w: missing parity count", ErrManifest)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrManifest, m.Version)
	}
	if len(m.Checksums) != m.NumShards() {
		return nil, fmt.Errorf("%w: %d checksums, want %d",
			ErrManifest, len(m.Checksums), m.NumShards())
	}
	if m.Version < 5 {
		m.StripSums = nil // the version picks the decode path
	} else if err := m.checkStripSums(); err != nil {
		return nil, err
	}
	// The stripe count must be the one encode derives from the file size,
	// so a size misstated by a stripe or more (or a "file_size" key that
	// a flipped bit renamed, which loads as 0) fails here instead of
	// decoding the wrong number of bytes.
	if per := int64(m.K) * int64(m.W) * int64(m.ElemSize); m.K < 1 || m.W < 1 || m.ElemSize < 1 ||
		m.FileSize < 0 || per <= 0 || int64(m.Stripes) != max(1, (m.FileSize+per-1)/per) {
		return nil, fmt.Errorf("%w: %d stripes of k=%d w=%d elem_size=%d do not hold a %d-byte file",
			ErrManifest, m.Stripes, m.K, m.W, m.ElemSize, m.FileSize)
	}
	return &m, nil
}

// checkStripSums validates a version 5 manifest's strip sums: one entry
// per shard, 4 bytes per stripe each, and each shard's last sum equal to
// its whole-shard checksum.
func (m *Manifest) checkStripSums() error {
	if len(m.StripSums) != m.NumShards() {
		return fmt.Errorf("%w: strip sums for %d shards, want %d",
			ErrManifest, len(m.StripSums), m.NumShards())
	}
	for i, sums := range m.StripSums {
		if len(sums)%4 != 0 || len(sums)/4 != m.Stripes {
			return fmt.Errorf("%w: shard %d has %d bytes of strip sums, want 4 per stripe for %d stripes",
				ErrManifest, i, len(sums), m.Stripes)
		}
		if last := m.stripSum(i, m.Stripes-1); last != m.Checksums[i] {
			return fmt.Errorf("%w: shard %d's last strip sum %08x differs from its checksum %08x",
				ErrManifest, i, last, m.Checksums[i])
		}
	}
	return nil
}

// stripSum returns shard i's running CRC-32 at the end of stripe s, and
// 0 (the CRC of nothing) for s = -1.
func (m *Manifest) stripSum(i, s int) uint32 {
	if s < 0 {
		return 0
	}
	return binary.BigEndian.Uint32(m.StripSums[i][4*s:])
}

// stripOK reports whether strip, read as stripe s of shard i, matches
// the manifest's strip sums.
func (m *Manifest) stripOK(i, s int, strip []byte) bool {
	return crc32.Update(m.stripSum(i, s-1), crc32.IEEETable, strip) == m.stripSum(i, s)
}

// probeBufSize is the scratch-buffer size of the streaming checksum
// probe: the probe reads each shard once in probeBufSize chunks, so its
// resident memory is O(1) regardless of shard size.
const probeBufSize = 128 << 10

// probeBufs recycles the probe's scratch buffers across calls.
var probeBufs = sync.Pool{New: func() any { return new([probeBufSize]byte) }}

// probeShards makes the up-front health decision for every shard of m.
// Shards are classified into three tiers:
//
//   - clean (StateOK): present, right-sized, CRC matches — returned open;
//   - soft-quarantined (StateCorrupt): present and readable but the CRC
//     mismatches — returned open too, because the correction path can
//     still stream them and repair single-column corruption in stream;
//   - hard-erased (missing, truncated, unreadable, or force-quarantined
//     from a previous attempt): cannot be streamed at all.
//
// With sums nil the probe reads every right-sized shard for its CRC.
// Otherwise it reads nothing (see recovery.run): a shard with a
// checksum in sums, rolled by the previous attempt's stream, is judged
// by it, and any other right-sized shard counts as clean, unverified
// until this attempt's stream checks it. Repair's fast pass and every
// version 5 decode pass an empty set; a version 5 decode checks each
// strip against the manifest's strip sums as it streams. Decodes of
// older sets and Verify always read: such a decode's writer cannot take
// back bytes from a shard that turns out corrupt, and Verify reads
// nothing else.
//
// The caller owns every non-nil file. The work is recorded as a
// shard.probe span (a child of ctx's trace when one is active) whose
// checksums attribute says whether the CRC pass ran, and every unhealthy
// shard as a shard.unhealthy event naming the shard and its state.
func probeShards(ctx context.Context, m *Manifest, dir string, st store.Store,
	reg *obs.Registry, forced map[int]error, sums map[int]uint32) (files []store.File, status []ShardStatus, hard, soft []int) {
	pctx, sp := obs.StartOp(ctx, nil, reg, "shard.probe")
	defer func() {
		sp.Attr(slog.Bool("checksums", sums == nil),
			slog.Int("hard", len(hard)), slog.Int("soft", len(soft))).End(nil)
	}()
	note := func(i int) {
		obs.EmitErr(pctx, slog.LevelWarn, "shard.unhealthy", status[i].Err,
			slog.Int("shard", i), slog.String("name", status[i].Name),
			slog.String("state", status[i].State.String()))
	}
	_, shardSize := m.shardShape()
	var buf *[probeBufSize]byte
	if sums == nil {
		buf = probeBufs.Get().(*[probeBufSize]byte)
		defer probeBufs.Put(buf)
	}
	files = make([]store.File, m.NumShards())
	status = make([]ShardStatus, m.NumShards())
	for i := range status {
		status[i] = ShardStatus{Index: i, Name: m.ShardName(i), State: StateOK}
		if cause, ok := forced[i]; ok {
			status[i].Present = true
			status[i].State = StateQuarantined
			status[i].Err = cause
			hard = append(hard, i)
			note(i)
			continue
		}
		f, openErr := st.Open(filepath.Join(dir, m.ShardName(i)))
		if openErr != nil {
			if errors.Is(openErr, fs.ErrNotExist) {
				status[i].State = StateMissing
			} else {
				status[i].Present = true
				status[i].State = StateIOError
			}
			status[i].Err = openErr
			hard = append(hard, i)
			note(i)
			continue
		}
		status[i].Present = true
		size, sizeErr := f.Size()
		if sizeErr != nil {
			status[i].State = StateIOError
			status[i].Err = sizeErr
			hard = append(hard, i)
			note(i)
			f.Close()
			continue
		}
		if size != shardSize {
			status[i].State = StateTruncated
			hard = append(hard, i)
			note(i)
			f.Close()
			continue
		}
		sum, streamed := sums[i]
		if sums != nil && !streamed {
			files[i] = f // unverified: this attempt's rolling CRC checks it
			continue
		}
		var crcErr error
		if sums == nil {
			sum, crcErr = streamCRC(store.SectionReader(f, size), buf[:])
		}
		if crcErr != nil {
			status[i].State = StateIOError
			status[i].Err = crcErr
			hard = append(hard, i)
			note(i)
			f.Close()
			continue
		}
		if sum != m.Checksums[i] {
			status[i].State = StateCorrupt
			soft = append(soft, i)
			note(i)
			files[i] = f // kept open: the correction path streams it
			continue
		}
		status[i].Valid = true
		files[i] = f
	}
	return files, status, hard, soft
}

// countShardOp bills one top-level shard operation into the
// shard.ops{op,code} family; the snapshot aggregate keeps the bare
// shard.ops total. No-op without a registry.
func countShardOp(reg *obs.Registry, op, code string) {
	reg.CountWith("shard.ops", 1, obs.L("op", op), obs.L("code", code))
}

// Verify probes the shard set's health without decoding anything. It
// returns nil when every shard is clean, a *DegradedError when at most
// m shards are unusable (recovery would succeed), and an
// *UnrecoverableError when the set is lost. Checksum-corrupt-but-present
// shards beyond the m-erasure budget still count as recoverable: the
// correction path can heal per-stripe single-column corruption.
func Verify(manifestPath string, opt Options) (err error) {
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.verify",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		sp.End(err)
		stampFlight(ctx, err)
	}()
	st := opt.store(ctx)
	m, err := loadManifest(st, manifestPath)
	if err != nil {
		return err
	}
	countShardOp(opt.Registry, "verify", m.Code)
	files, status, hard, soft := probeShards(ctx, m, filepath.Dir(manifestPath), st, opt.Registry, nil, nil)
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
	switch {
	case len(hard) == 0 && len(soft) == 0:
		return nil
	case len(hard) > m.M:
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards beyond repair, can tolerate %d", len(hard), m.M)}
	case len(hard) > 0 && len(hard)+len(soft) > m.M:
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards unusable, can tolerate %d", len(hard)+len(soft), m.M)}
	default:
		return &DegradedError{Status: status}
	}
}

// streamCRC computes the CRC-32 (IEEE) of r's remaining contents using
// the supplied scratch buffer.
func streamCRC(r io.Reader, buf []byte) (uint32, error) {
	var sum uint32
	for {
		n, err := r.Read(buf)
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
		if err == io.EOF {
			return sum, nil
		}
		if err != nil {
			return sum, err
		}
	}
}

// shardShape returns the strip size in bytes and the byte size every
// shard file must have.
func (m *Manifest) shardShape() (stripBytes int, shardSize int64) {
	stripBytes = m.widthElems() * m.ElemSize
	return stripBytes, int64(m.Stripes) * int64(stripBytes)
}

// widthElems returns W (elements per strip) for the manifest's code
// (version 1 manifests had it fixed up to P at load time).
func (m *Manifest) widthElems() int { return m.W }

// writeManifest stores m as compact JSON at path through the store.
// (Indenting would cost several times the marshal itself once the strip
// sums are in.)
func writeManifest(st store.Store, m *Manifest, path string) error {
	mf, err := st.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(&store.OffsetWriter{F: mf}).Encode(m); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return err
	}
	return mf.Close()
}
