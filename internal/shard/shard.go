// Package shard applies the registry's erasure codes to whole files: a
// file is striped into k data shards plus the code's m parity shards
// (P and Q for the RAID-6 families), any m of which may be lost (or
// silently corrupted — detected via per-strip checksums) while the file
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
// most three batches regardless of file size, plus the strip sums (4
// bytes per strip per shard).
//
// One integrity rule serves decode, repair and Verify: a strip is usable
// iff it matches its strip sum, the shard's running CRC-32 at the end of
// that stripe. A version 5 manifest records the sums, so the stream
// checks each strip in the one read that moves it, before the stripe is
// decoded or written: a strip that fails is erased for that stripe
// alone. Any k strips determine a stripe, so a decode reads only the
// first k usable shards (on a healthy set, the data shards) and keeps
// the others open as standbys: where a read strip fails, it reads the
// same stripe's strip from the next standby. Repair and Verify read
// every shard, so rot in a parity shard a decode never reads is theirs
// to find. Sets of versions 1–4 record only whole-shard checksums; their
// probe reads each shard once first and rolls its strip sums from a read
// whose CRC matches the checksum, and a shard whose CRC does not is
// erased whole. Repair writes temp files it renames only after their
// CRCs match, and rebuilds every survivor found with a failing strip as
// well.
//
// Every byte of I/O goes through a store.Store (see Options.Store), so
// the path is testable under injected faults, and it is self-healing:
// transient I/O errors are retried with capped exponential backoff,
// shards whose reads fail mid-stream are quarantined and the operation
// restarts without them, and silent corruption is erased strip by strip
// — a stripe with more than m strips unusable is a typed failure (see
// docs/ROBUSTNESS.md).
package shard

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/crc"
	"repro/internal/obs"
	"repro/internal/store"
)

// codeCacheSize bounds the codes cachedCode keeps.
const codeCacheSize = 64

// codeKey is what cachedCode builds a code from.
type codeKey struct {
	name string
	k, p int
	reg  *obs.Registry
}

var (
	codeCacheMu sync.Mutex
	codeCache   = map[codeKey]core.Code{}
)

// cachedCode returns codes.NewObserved(name, k, p, reg), built once per
// process: otherwise every encode recompiles the code's encoding plan
// and every degraded decode re-derives its decoding plans (Liberation's
// schedules, the inverted rows of rs). Codes are safe for concurrent use
// (Options.Workers shares one between goroutines), so one serves every
// operation. The cache holds at most codeCacheSize codes and starts
// over when full; an error is not kept.
func cachedCode(name string, k, p int, reg *obs.Registry) (core.Code, error) {
	key := codeKey{name, k, p, reg}
	codeCacheMu.Lock()
	defer codeCacheMu.Unlock()
	if code, ok := codeCache[key]; ok {
		return code, nil
	}
	code, err := codes.NewObserved(name, k, p, reg)
	if err != nil {
		return nil, err
	}
	if len(codeCache) >= codeCacheSize {
		clear(codeCache)
	}
	codeCache[key] = code
	return code, nil
}

// manifestCode returns the code a manifest was encoded with (see
// cachedCode) and cross-checks the manifest's recorded strip width
// against it, so a manifest that lies about its geometry fails before
// any shard I/O. Parameters the code rejects (a liberation p that is not
// an odd prime, say) are a bad manifest too.
func manifestCode(m *Manifest, reg *obs.Registry) (core.Code, error) {
	code, err := cachedCode(m.Code, m.K, m.P, reg)
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
// still load, as do versions 2 to 4. Before version 5 the probe derives
// the strip sums by reading every shard (see probeShards).
const FormatVersion = 5

// Options tunes the streaming data path. The zero value is valid:
// serial coding, default batch size, no metrics, the real filesystem
// with the default retry policy.
type Options struct {
	// Workers sets how many goroutines code each batch's stripes: 0 or 1
	// code them in line, n > 1 splits each batch into up to n contiguous
	// runs coded concurrently, and <0 uses all cores.
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
	// retry, quarantine, and strip that fails its sum is a child
	// span/event with typed attributes, fanned out to the tracer's sinks
	// (the JSON event log, say). When Context already carries an active
	// trace the operation chains onto it instead.
	Tracer *obs.Tracer
	// Store is the filesystem the shards live on (nil = the real one).
	// Wrap it with faultstore.New to inject faults.
	Store store.Store
	// Retry bounds the retrying of transient store failures. The zero
	// value selects store.DefaultRetry; set MaxAttempts to 1 to disable
	// retries. A store call that hangs is waited on: the policy acts
	// only between attempts.
	Retry store.RetryPolicy
	// Context cancels the operation: encode, decode and repair stop
	// before their next batch with an error wrapping Context.Err(), and
	// in-flight I/O stops at its next backoff sleep between retries.
	// Nil means context.Background().
	Context context.Context
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
	// on its own as crc.Update(sum[s-1], strip) == sum[s], with
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
		return m.FileName + ".shard.p"
	case i == m.K+1:
		return m.FileName + ".shard.q"
	case i > m.K+1:
		return m.FileName + ".shard.r" + twoDigits(i-2)
	default:
		return m.FileName + ".shard.d" + twoDigits(i)
	}
}

// twoDigits formats n >= 0 in decimal with at least two digits, as %02d
// does.
func twoDigits(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
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
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
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
		m.StripSums = nil // the probe derives them (see probeShards)
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
	return crc.Update(m.stripSum(i, s-1), strip) == m.stripSum(i, s)
}

// probeBufSize is the scratch-buffer size of a reading probe: it reads
// each shard once in probeBufSize chunks, so its resident memory is O(1)
// regardless of shard size.
const probeBufSize = 128 << 10

// probeBufs recycles the probe's scratch buffers across calls.
var probeBufs = sync.Pool{New: func() any { return new([probeBufSize]byte) }}

// probeShards makes the up-front health decision for every shard of m.
// It returns every shard the stream may read, open (the caller closes
// them), its status, and the shards erased whole: missing, truncated,
// unreadable, quarantined by an earlier attempt (forced), or failing the
// checksum of a version 1–4 set.
//
// Without read it opens and size-checks and reads nothing: the stream
// checks every strip against its sum. With read (Verify, and every
// attempt on a version 1–4 set) it reads each right-sized shard once as
// well (see readStrips). On a version 5 set bad lists, per shard, the
// stripes whose strips fail their sums; such a shard is StateCorrupt and
// its Err names them, but it stays open and is not erased. On a version
// 1–4 set a shard whose CRC matches its checksum gets the strip sums
// the read rolled, in m.StripSums for this operation only, and any
// other is StateCorrupt and erased whole, as nothing says which of its
// strips are bad.
//
// The work is recorded as a shard.probe span (a child of ctx's trace
// when one is active) whose checksums attribute says whether the probe
// read, and every unhealthy shard as a shard.unhealthy event naming the
// shard and its state.
func probeShards(ctx context.Context, m *Manifest, dir string, st store.Store,
	reg *obs.Registry, forced map[int]error, read bool) (files []store.File, status []ShardStatus, erased []int, bad [][]int) {
	pctx, sp := obs.StartOp(ctx, nil, reg, "shard.probe")
	defer func() {
		sp.Attr(slog.Bool("checksums", read), slog.Int("erased", len(erased))).End(nil)
	}()
	note := func(i int) {
		obs.EmitErr(pctx, slog.LevelWarn, "shard.unhealthy", status[i].Err,
			slog.Int("shard", i), slog.String("name", status[i].Name),
			slog.String("state", status[i].State.String()))
	}
	_, shardSize := m.shardShape()
	var buf *[probeBufSize]byte
	if read {
		buf = probeBufs.Get().(*[probeBufSize]byte)
		defer probeBufs.Put(buf)
	}
	if m.Version < 5 {
		m.StripSums = make([][]byte, m.NumShards())
	} else if read {
		bad = make([][]int, m.NumShards())
	}
	files = make([]store.File, m.NumShards())
	status = make([]ShardStatus, m.NumShards())
	for i := range status {
		status[i] = ShardStatus{Index: i, Name: m.ShardName(i), State: StateOK}
		if cause, ok := forced[i]; ok {
			status[i].Present = true
			status[i].State = StateQuarantined
			status[i].Err = cause
			erased = append(erased, i)
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
			erased = append(erased, i)
			note(i)
			continue
		}
		status[i].Present = true
		size, err := f.Size()
		var failing []int
		switch {
		case err != nil:
			status[i].State = StateIOError
		case size != shardSize:
			status[i].State = StateTruncated
		case read:
			var sums []byte
			sums, failing, err = m.readStrips(i, io.NewSectionReader(f, 0, size), buf[:])
			switch {
			case err != nil:
				status[i].State = StateIOError
			case m.Version < 5 && sums == nil:
				status[i].State = StateCorrupt
				err = fmt.Errorf("shard %d (%s) fails its checksum %08x", i, m.ShardName(i), m.Checksums[i])
			case m.Version < 5:
				m.StripSums[i] = sums
			}
		}
		if status[i].State != StateOK {
			status[i].Err = err
			erased = append(erased, i)
			note(i)
			f.Close()
			continue
		}
		files[i] = f
		status[i].Valid = read
		if len(failing) > 0 {
			bad[i] = failing
			status[i].State, status[i].Valid = StateCorrupt, false
			status[i].Err = fmt.Errorf("shard %d (%s): strips fail their sums in stripes %v", i, m.ShardName(i), failing)
			note(i)
		}
	}
	return files, status, erased, bad
}

// readStrips reads shard i of m once from r, in len(buf) chunks, and
// splits its CRC at every strip's end. On a version 5 set it checks each
// strip from its recorded start, crc.Update(sum[s-1], strip) == sum[s],
// so one bad strip fails alone (a running CRC would fail every strip
// after it), and returns the stripes that fail. On a version 1–4 set it
// records the running CRC at every stripe's end and returns those sums
// when the last one is the shard's checksum, nil otherwise.
func (m *Manifest) readStrips(i int, r io.Reader, buf []byte) (sums []byte, failing []int, err error) {
	sb, _ := m.shardShape()
	if m.Version < 5 {
		sums = make([]byte, 4*m.Stripes)
	}
	var sum uint32
	s, left := 0, sb
	for err != io.EOF {
		var n int
		if n, err = r.Read(buf); err != nil && err != io.EOF {
			return nil, nil, err
		}
		for p := buf[:n]; len(p) > 0; {
			c := min(left, len(p))
			sum = crc.Update(sum, p[:c])
			if p, left = p[c:], left-c; left > 0 {
				continue
			}
			if sums != nil {
				binary.BigEndian.PutUint32(sums[4*s:], sum)
			} else if want := m.stripSum(i, s); sum != want {
				failing = append(failing, s)
				sum = want
			}
			s, left = s+1, sb
		}
	}
	if sums != nil && sum != m.Checksums[i] {
		sums = nil
	}
	return sums, failing, nil
}

// Verify reads the shard set and judges its health without decoding
// anything, by the rule decode and repair use: a strip is usable iff it
// matches its strip sum, and a stripe is lost when its shards erased
// whole plus its failing strips exceed m. It returns nil when every
// shard is clean, a *DegradedError when no stripe is lost (recovery
// would succeed; each corrupt shard's ShardStatus.Err names its failing
// stripes), and an *UnrecoverableError when one is. On a version 1–4
// set a shard that fails its whole-shard checksum is erased whole, and
// so counts in every stripe.
func Verify(manifestPath string, opt Options) (err error) {
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.verify",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() { sp.End(err) }()
	st := opt.store(ctx)
	m, err := loadManifest(st, manifestPath)
	if err != nil {
		return err
	}
	files, status, erased, bad := probeShards(ctx, m, filepath.Dir(manifestPath), st, opt.Registry, nil, true)
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
	if len(erased) > m.M {
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards unusable, can tolerate %d", len(erased), m.M)}
	}
	var failing []int // failing strips per stripe
	for _, stripes := range bad {
		for _, s := range stripes {
			if failing == nil {
				failing = make([]int, m.Stripes)
			}
			failing[s]++
		}
	}
	for s, n := range failing {
		if len(erased)+n > m.M {
			return &UnrecoverableError{Status: status, Reason: fmt.Sprintf(
				"stripe %d: %d strips unusable, can tolerate %d", s, len(erased)+n, m.M)}
		}
	}
	if countUnusable(status) > 0 {
		return &DegradedError{Status: status}
	}
	return nil
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
	if err := json.NewEncoder(io.NewOffsetWriter(mf, 0)).Encode(m); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return err
	}
	return mf.Close()
}
