// Package shard applies the registry's erasure codes to whole files: a
// file is striped into k data shards plus the code's m parity shards
// (P and Q for the RAID-6 families), any m of which may be lost (or
// silently corrupted — detected via per-shard checksums) while the file
// remains recoverable. It is the library behind the raidcli tool and
// doubles as an end-to-end exercise of the public coding API.
//
// The data path is streaming in both directions. Encoding overlaps
// read → encode → write through a double-buffered batch pipeline (a
// reader goroutine fills batch N+1 while the worker pool encodes batch N
// and a writer goroutine drains batch N-1), and decoding/repair read all
// k+m shards batch by batch. A batch is about 1 MiB of stripes laid out
// column by column, so each shard's part of it moves with one positional
// read or write, straight between the store and the batch. Peak memory
// is a few batches regardless of file size; shard health is decided up
// front by a cheap stat+checksum probe and re-verified incrementally by
// rolling CRCs while the stripes stream through.
//
// Every byte of I/O goes through a store.Store (see Options.Store), so
// the path is testable under injected faults, and it is self-healing:
// transient I/O errors are retried with capped exponential backoff,
// shards that fail mid-stream are quarantined and the decode restarts
// without them, and silent single-column corruption is repaired in
// stream with the paper's CorrectColumn — the degradation ladder is CRC
// quarantine → CorrectColumn → erasure decode → typed failure (see
// docs/ROBUSTNESS.md).
package shard

import (
	"context"
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

// newCode resolves a code by registry name (p = 0 selects the smallest
// usable prime for the array codes) and attaches the optional metrics
// registry to codes that support instrumentation.
func newCode(name string, k, p int, reg *obs.Registry) (core.Code, error) {
	return codes.NewObserved(name, k, p, reg)
}

// manifestCode constructs the code a manifest was encoded with and
// cross-checks the manifest's recorded strip width against it, so a
// manifest that lies about its geometry fails before any shard I/O.
func manifestCode(m *Manifest, reg *obs.Registry) (core.Code, error) {
	code, err := newCode(m.Code, m.K, m.P, reg)
	if err != nil {
		return nil, err
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

// FormatVersion identifies the manifest/shard layout. Version 4 records
// the code's parity count m (earlier versions are implicitly m = 2);
// version 3 adds an optional placement block recording which simulated
// node each shard landed on; version 2 records the erasure code by
// registry name together with its strip width; version 1 manifests
// (implicitly Liberation) still load, as do version 2 and 3 manifests.
const FormatVersion = 4

// Options tunes the streaming data path. The zero value is valid:
// serial coding, default batch size, no metrics, the real filesystem
// with the default retry policy.
type Options struct {
	// Workers sets the stripe-coding pool size: 0 or 1 encode/decode
	// in-line on the pipeline's coding stage, >1 fans stripes of each
	// batch out over a pipeline worker pool, and <0 uses all cores.
	Workers int
	// BatchStripes is the number of stripes per pipeline batch. Zero
	// sizes batches to about 1 MiB, with at least one stripe per worker.
	// Peak memory scales with it: one batch for decode and repair, up to
	// three for encode.
	BatchStripes int
	// Registry, when non-nil, receives shard.* spans, the pipeline
	// stage-wait histograms, and the queue-depth gauge, and is attached
	// to the underlying code (liberation.* spans) and worker pool.
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
	// Context cancels in-flight I/O (including backoff sleeps between
	// retries). Nil means context.Background().
	Context context.Context
	// Heal makes decode scan every stripe with the paper's single-column
	// error correction even when the up-front probe found all shards
	// clean, catching read-path bit-flips at the cost of one extra
	// parity computation per stripe. (When the probe quarantines
	// checksum-corrupt shards, the correction path engages regardless.)
	// Codes without the core.ColumnCorrector capability skip this rung
	// and fall straight to erasure decode.
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

// observeWait is a nil-safe latency-histogram observation for the
// pipeline stage metrics.
func observeWait(reg *obs.Registry, name string, d time.Duration) {
	if reg != nil {
		reg.Observe(name, obs.LatencyBuckets, d.Seconds())
	}
}

// addGauge is a nil-safe gauge increment.
func addGauge(reg *obs.Registry, name string, delta float64) {
	if reg != nil {
		reg.Gauge(name).Add(delta)
	}
}

// Manifest describes an encoded shard set. It is stored as JSON next to
// the shards. Version 4 records the parity count M (earlier versions
// imply M = 2); version 2 names the erasure code (a codes registry
// name) and its strip width W; version 1 predates the registry and
// implies the Liberation code with W = P.
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
	// Placement, when present (version 3, encoded through a node-mapped
	// store), records which simulated node each shard landed on.
	Placement *Placement `json:"placement,omitempty"`
}

// Placement is the manifest's record of how shards were spread across
// simulated fault domains: the policy that placed them, the node count,
// and one node index per shard (same order as Checksums). It is
// advisory — decode works without it — but it lets operators and the
// chaos harness reason about which outages a shard set survives.
type Placement struct {
	Policy string `json:"policy"`
	Nodes  int    `json:"nodes"`
	Shards []int  `json:"shards"`
}

// ShardName returns the file name of strip i's shard. Data strips are
// dNN, the first two parities keep their RAID-6 names p and q, and
// parities beyond the second are rNN (numbered so that every shard of a
// set has a distinct placement ordinal; see the nodestore spread policy).
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
	case 2, 3, FormatVersion:
		if !codes.Known(m.Code) {
			return nil, fmt.Errorf("%w: unknown code %q (registered: %s)",
				ErrManifest, m.Code, strings.Join(codes.Names(), ", "))
		}
		if m.W <= 0 {
			return nil, fmt.Errorf("%w: missing strip width", ErrManifest)
		}
		if m.Version < FormatVersion {
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
	if pl := m.Placement; pl != nil {
		if pl.Nodes < 1 {
			return nil, fmt.Errorf("%w: placement with %d nodes", ErrManifest, pl.Nodes)
		}
		if len(pl.Shards) != m.NumShards() {
			return nil, fmt.Errorf("%w: placement maps %d shards, want %d",
				ErrManifest, len(pl.Shards), m.NumShards())
		}
		for i, n := range pl.Shards {
			if n < 0 || n >= pl.Nodes {
				return nil, fmt.Errorf("%w: shard %d placed on node %d of %d",
					ErrManifest, i, n, pl.Nodes)
			}
		}
	}
	return &m, nil
}

// nodeMapperOf extracts the node-placement view of a configured store,
// nil when the store does not map paths to fault domains.
func nodeMapperOf(st store.Store) store.NodeMapper {
	m, _ := st.(store.NodeMapper)
	return m
}

// nodeFault reports whether err is a node-level store fault — a down
// node, an open circuit breaker, or an exhausted per-op deadline. These
// are the failures a restarted attempt can route around by re-placing
// its work onto other nodes.
func nodeFault(err error) bool {
	return store.IsKind(err, store.KindNodeDown) ||
		store.IsKind(err, store.KindBreakerOpen) ||
		store.IsKind(err, store.KindTimeout)
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
// The caller owns every non-nil file. The work is recorded as a
// shard.probe span (a child of ctx's trace when one is active), and
// every unhealthy shard as a shard.unhealthy event naming the shard and
// its state. When mapper is non-nil (a node-mapped store) each status is
// attributed to the node holding the shard, so a whole-node outage reads
// as such in the report instead of as unrelated per-shard failures.
func probeShards(ctx context.Context, m *Manifest, dir string, st store.Store,
	mapper store.NodeMapper, reg *obs.Registry,
	forced map[int]error) (files []store.File, status []ShardStatus, hard, soft []int) {
	pctx, sp := obs.StartSpanCtx(ctx, reg, "shard.probe")
	defer func() {
		sp.Attr(slog.Int("hard", len(hard)), slog.Int("soft", len(soft))).End(nil)
	}()
	note := func(i int) {
		attrs := []obs.Attr{slog.Int("shard", i), slog.String("name", status[i].Name),
			slog.String("state", status[i].State.String())}
		if status[i].Node >= 0 {
			attrs = append(attrs, slog.Int("node", status[i].Node))
		}
		obs.EmitErr(pctx, slog.LevelWarn, "shard.unhealthy", status[i].Err, attrs...)
	}
	_, shardSize := m.shardShape()
	buf := probeBufs.Get().(*[probeBufSize]byte)
	defer probeBufs.Put(buf)
	files = make([]store.File, m.NumShards())
	status = make([]ShardStatus, m.NumShards())
	for i := range status {
		status[i] = ShardStatus{Index: i, Name: m.ShardName(i), State: StateOK, Node: -1}
		if mapper != nil {
			status[i].Node = mapper.NodeFor(filepath.Join(dir, m.ShardName(i)))
		}
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
		sum, crcErr := streamCRC(store.SectionReader(f, size), buf[:])
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
	files, status, hard, soft := probeShards(ctx, m, filepath.Dir(manifestPath), st,
		nodeMapperOf(opt.Store), opt.Registry, nil)
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

// writeManifest stores m as indented JSON at path through the store.
func writeManifest(st store.Store, m *Manifest, path string) error {
	mf, err := st.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(&store.OffsetWriter{F: mf})
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return err
	}
	return mf.Close()
}
