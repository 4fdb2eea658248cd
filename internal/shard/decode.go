package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/crc"
	"repro/internal/obs"
	"repro/internal/store"
)

// Report summarizes one recovery run (decode or repair): the per-shard
// health, which shards were quarantined, and how many streaming attempts
// the self-healing loop needed.
type Report struct {
	// Status is the final per-shard health (from the last attempt's
	// probe, refined by what its stream found).
	Status []ShardStatus
	// Quarantined lists shards whose content was distrusted at any
	// point: a strip that failed its strip sum, a version 1–4 shard that
	// failed its checksum, or a read that failed mid-stream.
	Quarantined []int
	// Attempts is the number of streaming passes (1 = no restart).
	Attempts int
	// Degraded reports whether recovery ran without full redundancy.
	Degraded bool
}

// DecodeReport is the self-healing streaming decoder. It reconstructs
// the original file from the shard set described by the manifest at
// manifestPath (shards are looked up in the same directory), writes it
// to w, and reports what recovery observed. One rule decides what it
// uses: a strip is usable iff it matches its strip sum. Up to m hard
// losses are tolerated (m being the code's parity count), and silent
// corruption as long as no stripe has more than m strips unusable.
//
// The probe opens and size-checks every shard; the ones missing,
// truncated or unreadable are erased. The stream then checks every strip
// it reads against its strip sum before the stripe is decoded or written
// (split over Options.Workers with the decoding). A strip that fails
// erases its shard for that stripe alone (the shard is reported
// StateCorrupt and quarantined), every reconstructed strip that has a
// sum must match it too, and a stripe with more than m strips unusable
// ends the decode in an *UnrecoverableError before its batch is written.
// So silent corruption needs no restart, even into a writer that cannot
// rewind.
//
// A version 5 manifest records the strip sums, so its probe reads
// nothing and each survivor is read once. Sets of versions 1–4 record
// only whole-shard checksums: their probe reads every shard once and
// rolls its strip sums, for this decode only, from a read whose CRC
// matches the checksum; a shard whose CRC does not is erased whole, and
// each shard erased whole is checked against its checksum once it has
// been reconstructed.
//
// Transient read errors are retried with capped exponential backoff
// (Options.Retry), and a shard whose read fails mid-stream is
// quarantined and the decode restarts without it when w is rewindable,
// i.e. an *os.File; into any other writer the decode fails with the
// quarantine's cause instead. Shards are read batch by batch, one
// positional read per shard per batch, straight into a pooled batch of
// about 1 MiB (Options.BatchStripes overrides the size). A decode of
// more than two batches holds two: a reader goroutine reads and checks
// the next batch while the caller decodes and writes this one, and
// errors still come back in stripe order. So resident memory grows with
// the file only by the strip sums, 4 bytes per strip per shard: 7.5 KB
// (10 KB of base64 in a version 5 manifest) for a 64 MiB liberation
// object at k=8, p=11 and 4 KiB elements, and 0.1% of the shard bytes
// (0.13% in base64) for rs3 at 4 KiB elements. A cancelled
// Options.Context stops the decode before its next batch.
func DecodeReport(manifestPath string, w io.Writer, opt Options) (_ *Report, err error) {
	var m *Manifest
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.decode",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		if m != nil {
			sp.Bytes(int(m.FileSize))
		}
		sp.End(err)
	}()
	st := opt.store(ctx)
	m, err = loadManifest(st, manifestPath)
	if err != nil {
		return nil, err
	}
	code, err := manifestCode(m, opt.Registry)
	if err != nil {
		return nil, err
	}

	r := &recovery{m: m, code: code, opt: opt, st: st, ctx: ctx, dir: filepath.Dir(manifestPath), ahead: true}
	sink := &decodeSink{w: w, m: m}
	err = r.run(sink)
	return r.rep, err
}

// RepairOpts reconstructs missing or corrupt shards in place and
// returns the indices repaired. It runs DecodeReport's probe and stream,
// with the same rule, but routes the reconstructed strips into fresh
// shard files written next to the originals: each repaired shard
// streams into a temporary file whose rolling CRC must reproduce the
// manifest checksum before it is synced and renamed over the broken
// shard, so a failed repair (a cancelled Options.Context included) never
// clobbers anything.
//
// A survivor with a strip that fails its sum is erased for that stripe,
// so the shards being rebuilt come out right, and the attempt then
// restarts with that survivor among them: the next attempt streams it,
// rebuilds its failing strips stripe by stripe and writes it whole. So a
// repair reads each survivor of a version 5 set once when none is
// corrupt and twice when one is. A version 1–4 set's probe reads every
// shard first, as in DecodeReport. Repair never reads ahead, so a fault
// store's seeded schedule replays.
func RepairOpts(manifestPath string, opt Options) (_ []int, err error) {
	var m *Manifest
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.repair",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		if m != nil {
			sp.Bytes(int(m.FileSize))
		}
		sp.End(err)
	}()
	st := opt.store(ctx)
	m, err = loadManifest(st, manifestPath)
	if err != nil {
		return nil, err
	}
	code, err := manifestCode(m, opt.Registry)
	if err != nil {
		return nil, err
	}

	dir := filepath.Dir(manifestPath)
	r := &recovery{m: m, code: code, opt: opt, st: st, ctx: ctx, dir: dir}
	sink := &repairSink{m: m, st: st, dir: dir}
	if err = r.run(sink); err != nil {
		return nil, err
	}
	return sink.repaired, nil
}

// recovery drives the self-healing attempt loop shared by decode and
// repair.
type recovery struct {
	m    *Manifest
	code core.Code
	opt  Options
	st   store.Store
	ctx  context.Context // carries the operation's trace
	dir  string
	// ahead lets a stream of more than inlineBatches batches read the
	// next batch while it decodes this one (see streamBatches). Decode
	// sets it. Repair runs in line: its sink writes temp files through
	// the store, and reads from a second goroutine would interleave with
	// those writes, so a fault store's seeded schedule, drawn one store
	// call at a time, would no longer replay.
	ahead bool

	rep     *Report
	forced  map[int]error // mid-stream quarantines, by column
	counted map[int]bool  // shard.quarantine.total dedup across attempts
}

// run executes probe → stream attempts until one succeeds, the attempt
// budget is exhausted, or the error is neither a mid-stream quarantine
// nor a repair's request for more targets (errRetarget).
func (r *recovery) run(sink recoverSink) error {
	r.rep = &Report{}
	r.forced = make(map[int]error)
	r.counted = make(map[int]bool)
	defer sink.abort()
	// The budget bounds the restart loop defensively; the quarantine
	// budget (at most m shards erased) ends it much earlier.
	budget := r.m.M + 3
	for {
		r.rep.Attempts++
		actx, asp := obs.StartOp(r.ctx, nil, r.opt.Registry, "shard.attempt",
			slog.Int("attempt", r.rep.Attempts))
		files, status, erased, _ := probeShards(actx, r.m, r.dir, r.st, r.opt.Registry, r.forced, r.m.Version < 5)
		r.rep.Status = status
		r.noteQuarantines(actx, status)
		err := r.stream(actx, files, erased, sink)
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		asp.End(err)
		if err == nil {
			if len(erased)+len(r.rep.Quarantined) > 0 {
				r.rep.Degraded = true
			}
			return nil
		}
		var q *quarantineError
		if !errors.As(err, &q) && !errors.Is(err, errRetarget) {
			return err
		}
		if r.rep.Attempts >= budget {
			return &UnrecoverableError{Status: r.rep.Status,
				Reason: fmt.Sprintf("gave up after %d attempts: %v", r.rep.Attempts, err)}
		}
		if q == nil {
			continue
		}
		if _, dup := r.forced[q.col]; dup {
			// The same column failed after already being excluded —
			// nothing left to heal with.
			return &UnrecoverableError{Status: r.rep.Status,
				Reason: fmt.Sprintf("shard %d failed repeatedly: %v", q.col, q.cause)}
		}
		r.forced[q.col] = q.cause
		obs.EmitErr(r.ctx, slog.LevelWarn, "shard.quarantine.midstream", q.cause,
			slog.Int("shard", q.col), slog.String("name", r.m.ShardName(q.col)),
			slog.Int("attempt", r.rep.Attempts))
		if !sink.canRestart() {
			// The output cannot take back the batches it was given: report
			// the shard as a restart's probe would, and fail with its cause.
			st := &r.rep.Status[q.col]
			st.State, st.Valid, st.Err = StateQuarantined, false, q.cause
			r.quarantine(r.ctx, *st)
			return fmt.Errorf("shard: restarting without shard %d needs a rewindable output: %w", q.col, q)
		}
	}
}

// noteQuarantines quarantines every shard a probe found corrupt or that
// a previous attempt quarantined mid-stream.
func (r *recovery) noteQuarantines(ctx context.Context, status []ShardStatus) {
	for _, st := range status {
		if st.State == StateCorrupt || st.State == StateQuarantined {
			r.quarantine(ctx, st)
		}
	}
}

// quarantine bills shard.quarantine.total once per shard across all
// attempts, records the shard in the report's quarantine list, and
// emits a shard.quarantine event with attrs into the attempt's trace
// the first time the shard is distrusted.
func (r *recovery) quarantine(ctx context.Context, st ShardStatus, attrs ...obs.Attr) {
	if r.counted[st.Index] {
		return
	}
	r.counted[st.Index] = true
	r.rep.Quarantined = append(r.rep.Quarantined, st.Index)
	sort.Ints(r.rep.Quarantined)
	r.opt.Registry.Count("shard.quarantine.total", 1)
	obs.EmitErr(ctx, slog.LevelWarn, "shard.quarantine", st.Err, append([]obs.Attr{
		slog.Int("shard", st.Index), slog.String("name", st.Name),
		slog.String("state", st.State.String())}, attrs...)...)
}

// stripFailed records that shard i's strip in stripe failed its strip
// sum. The first failure of a shard in an attempt marks it StateCorrupt,
// quarantines it, and names it in shard.unhealthy and shard.quarantine
// events with the stripe; later strips of the same shard are erased just
// the same but not reported again.
func (r *recovery) stripFailed(ctx context.Context, i, stripe int) {
	st := &r.rep.Status[i]
	if st.State == StateCorrupt {
		return
	}
	st.State, st.Valid = StateCorrupt, false
	st.Err = fmt.Errorf("shard %d (%s): stripe %d fails its strip sum", i, st.Name, stripe)
	attrs := []obs.Attr{slog.Int("shard", i), slog.String("name", st.Name),
		slog.String("state", st.State.String()), slog.Int("stripe", stripe)}
	obs.EmitErr(ctx, slog.LevelWarn, "shard.unhealthy", st.Err, attrs...)
	r.quarantine(ctx, *st, slog.Int("stripe", stripe))
}

// stream is the one recovery pass, for decode and repair alike, recorded
// as a shard.rung event in the attempt's trace: the shards the probe
// erased are reconstructed from the survivors, batch by batch, and every
// strip is held to its strip sum. The fill side checks each streamed
// strip and keeps the failing ones on the batch; the use side decodes
// every stripe with its failing strips erased for it alone (see
// decodeStripe), then reports the failures (see reportStripes). A
// version 1–4 shard the probe erased has no strip sums: its
// reconstructed column is checked whole, against the manifest checksum,
// at the end of the stream.
func (r *recovery) stream(ctx context.Context, files []store.File, erased []int, sink recoverSink) error {
	m := r.m
	if len(erased) > m.M {
		return &UnrecoverableError{Status: r.rep.Status,
			Reason: fmt.Sprintf("%d shards unusable, can tolerate %d", len(erased), m.M)}
	}
	obs.Emit(ctx, slog.LevelInfo, "shard.rung",
		slog.String("rung", "erasure"), slog.Int("erased", len(erased)))
	if err := sink.begin(erased); err != nil {
		return err
	}
	var unsummed []int
	for _, e := range erased {
		if m.StripSums[e] == nil {
			unsummed = append(unsummed, e)
		}
	}
	rolling := make([]uint32, len(unsummed))
	// The per-stripe steps are built once per stream, not per batch:
	// forEachStripe may run them on goroutines, so each escapes to the
	// heap. Fill and use run on different goroutines, so each step reads
	// its own side's batch.
	workers := r.opt.workerCount()
	var checking, decoding *batch
	check := func(j int, s *core.Stripe) error {
		b := checking
		for i, f := range files {
			if f != nil && !m.stripOK(i, b.first+j, s.Strips[i]) {
				b.failed[j] = append(b.failed[j], i)
			}
		}
		return nil
	}
	decode := func(j int, s *core.Stripe) error {
		b := decoding
		b.errs[j] = r.decodeStripe(s, b.first+j, erased, b.failed[j])
		return b.errs[j]
	}
	fill := func(b *batch) error {
		if col, err := fillBatch(files, b); err != nil {
			return &quarantineError{col: col, cause: err}
		}
		checking = b
		b.clearChecks()
		forEachStripe(b.live(), workers, check)
		return nil
	}
	use := func(b *batch) error {
		decoding = b
		forEachStripe(b.live(), workers, decode)
		if err := r.reportStripes(ctx, b); err != nil {
			return err
		}
		for j, e := range unsummed {
			rolling[j] = crc.Update(rolling[j], b.col(e))
		}
		return sink.consume(b)
	}
	if err := streamBatches(ctx, r.shape(), m.Stripes, r.ahead, fill, use); err != nil {
		return err
	}
	for j, e := range unsummed {
		if rolling[j] != m.Checksums[e] {
			return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
				"reconstructed shard %d fails its manifest checksum", e)}
		}
	}
	// Every strip of a shard still StateOK matched its sum.
	for i, f := range files {
		if f != nil && r.rep.Status[i].State == StateOK {
			r.rep.Status[i].Valid = true
		}
	}
	return sink.finish()
}

// reportStripes reports the batch's failed strips in stripe order, up
// to the first stripe that failed to decode, and returns that stripe's
// error alone, before the batch reaches the sink.
func (r *recovery) reportStripes(ctx context.Context, b *batch) error {
	for j, bad := range b.failed[:b.n] {
		for _, i := range bad {
			r.stripFailed(ctx, i, b.first+j)
		}
		if b.errs[j] != nil {
			return b.errs[j]
		}
	}
	return nil
}

// decodeStripe decodes one stripe: the strips that failed their sums in
// this stripe are erased for it alone, on top of the shards erased for
// the whole stream, and every reconstructed strip that has a sum must
// match it as well. A stripe with more than m strips unusable fails
// without decoding.
func (r *recovery) decodeStripe(s *core.Stripe, stripe int, erased, failed []int) error {
	m := r.m
	lost := erased
	if len(failed) > 0 {
		if len(erased)+len(failed) > m.M {
			return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
				"stripe %d: %d strips unusable, can tolerate %d", stripe, len(erased)+len(failed), m.M)}
		}
		lost = append(slices.Clone(erased), failed...)
		slices.Sort(lost)
	}
	if len(lost) == 0 {
		return nil
	}
	if err := r.code.Decode(s, lost, nil); err != nil {
		return err
	}
	for _, e := range lost {
		if m.StripSums[e] != nil && !m.stripOK(e, stripe, s.Strips[e]) {
			return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
				"stripe %d: reconstructed shard %d fails its strip sum", stripe, e)}
		}
	}
	return nil
}

// recoverSink receives the recovered stripes of one attempt. begin is
// called at the start of every attempt with the shards erased whole (a
// restart must rewind), consume after each batch is decoded, finish on
// success, and abort exactly once when the recovery ends (success or
// not).
type recoverSink interface {
	begin(erased []int) error
	consume(b *batch) error
	finish() error
	abort()
	// canRestart reports whether a later begin can undo consumed output.
	canRestart() bool
}

// decodeSink streams the data strips to the caller's writer, truncating
// to the original file size. Restarts rewind the writer when it supports
// Seek+Truncate (*os.File does); otherwise the restart is refused and
// the decode fails with the quarantine cause.
type decodeSink struct {
	w         io.Writer
	m         *Manifest
	remaining int64
	attempts  int
}

// rewindableWriter is what a decode destination must implement to
// support mid-stream quarantine restarts.
type rewindableWriter interface {
	io.WriteSeeker
	Truncate(int64) error
}

func (s *decodeSink) begin([]int) error {
	s.attempts++
	if s.attempts > 1 {
		rw := s.w.(rewindableWriter) // run restarts only a sink that can rewind
		if _, err := rw.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if err := rw.Truncate(0); err != nil {
			return err
		}
	}
	s.remaining = s.m.FileSize
	return nil
}

func (s *decodeSink) consume(b *batch) error {
	for _, stripe := range b.live() {
		for t := 0; t < s.m.K && s.remaining > 0; t++ {
			out := min(int64(b.sb), s.remaining)
			if _, err := s.w.Write(stripe.Strips[t][:out]); err != nil {
				return err
			}
			s.remaining -= out
		}
	}
	return nil
}

func (s *decodeSink) finish() error {
	if s.remaining != 0 {
		return fmt.Errorf("shard: %d bytes unaccounted for", s.remaining)
	}
	return nil
}

func (s *decodeSink) abort() {}

func (s *decodeSink) canRestart() bool {
	_, ok := s.w.(rewindableWriter)
	return ok
}

// errRetarget ends a repair attempt whose stream found survivors with a
// strip that fails its sum: the next attempt rebuilds them as well.
var errRetarget = errors.New("shard: survivors with failing strips join the repair targets")

// repairSink streams each target column into a temporary file; finish
// verifies, syncs, and renames them over the broken shards, so a failed
// repair never clobbers anything. The targets are the shards erased
// whole plus every survivor an attempt has found with a failing strip
// (more), kept as a set: such a survivor is streamed and checked like
// any other, so its failing strips are rebuilt stripe by stripe and the
// rest are written as read. An attempt that finds a new one ends in
// errRetarget instead of committing. Restarts recreate the temp files.
type repairSink struct {
	m   *Manifest
	st  store.Store
	dir string

	more     []int
	targets  []int
	files    map[int]store.File
	rolling  map[int]uint32
	repaired []int
}

func (s *repairSink) tmpPath(e int) string {
	return filepath.Join(s.dir, s.m.ShardName(e)+".repair")
}

func (s *repairSink) begin(erased []int) error {
	s.cleanup()
	s.targets = slices.Clone(erased)
	for _, i := range s.more {
		if !slices.Contains(s.targets, i) {
			s.targets = append(s.targets, i)
		}
	}
	slices.Sort(s.targets)
	s.files = make(map[int]store.File, len(s.targets))
	s.rolling = make(map[int]uint32, len(s.targets))
	for _, e := range s.targets {
		f, err := s.st.Create(s.tmpPath(e))
		if err != nil {
			return err
		}
		s.files[e] = f
	}
	return nil
}

func (s *repairSink) consume(b *batch) error {
	for _, bad := range b.failed[:b.n] {
		for _, i := range bad {
			if !slices.Contains(s.targets, i) && !slices.Contains(s.more, i) {
				s.more = append(s.more, i)
			}
		}
	}
	for _, e := range s.targets {
		if err := writeCol(s.files[e], b, e); err != nil {
			return err
		}
		s.rolling[e] = crc.Update(s.rolling[e], b.col(e))
	}
	return nil
}

func (s *repairSink) finish() error {
	for _, i := range s.more {
		if !slices.Contains(s.targets, i) {
			return errRetarget
		}
	}
	for _, e := range s.targets {
		if s.rolling[e] != s.m.Checksums[e] {
			return fmt.Errorf("shard: repaired shard %d fails its checksum", e)
		}
	}
	for _, e := range s.targets {
		if err := s.files[e].Sync(); err != nil {
			return err
		}
		if err := s.files[e].Close(); err != nil {
			s.files[e] = nil
			return err
		}
		s.files[e] = nil
		if err := s.st.Rename(s.tmpPath(e), filepath.Join(s.dir, s.m.ShardName(e))); err != nil {
			return err
		}
	}
	s.repaired = append([]int(nil), s.targets...)
	s.files, s.targets = nil, nil
	return nil
}

func (s *repairSink) abort() { s.cleanup() }

func (s *repairSink) canRestart() bool { return true }

// cleanup closes and removes any temp files of an unfinished attempt.
func (s *repairSink) cleanup() {
	for e, f := range s.files {
		if f != nil {
			f.Close()
		}
		s.st.Remove(s.tmpPath(e))
	}
	s.files, s.rolling, s.targets = nil, nil, nil
}

// shape is the batch shape for this manifest and the options.
func (r *recovery) shape() batchShape {
	m := r.m
	sb, _ := m.shardShape()
	return batchShape{m.K, m.M, m.W, m.ElemSize, r.opt.batchStripes(m.NumShards()*sb, m.Stripes)}
}
