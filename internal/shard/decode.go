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
// health, which shards were quarantined, how many stripes the
// single-column correction healed, and how many streaming attempts the
// self-healing loop needed.
type Report struct {
	// Status is the final per-shard health (from the last attempt's
	// probe, refined by mid-stream quarantines).
	Status []ShardStatus
	// Quarantined lists shards whose content was distrusted at any
	// point: checksum-corrupt at probe time, failed mid-stream, or (a
	// version 5 decode) with a strip that failed its strip sum.
	Quarantined []int
	// Corrections is the number of stripes healed by the paper's
	// single-column error correction.
	Corrections uint64
	// Attempts is the number of streaming passes (1 = no restart).
	Attempts int
	// Degraded reports whether recovery ran without full redundancy.
	Degraded bool
}

// DecodeReport is the self-healing streaming decoder. It reconstructs
// the original file from the shard set described by the manifest at
// manifestPath (shards are looked up in the same directory), writes it
// to w, and reports what recovery observed: up to m hard losses are
// tolerated (m being the code's parity count), and silent corruption is
// tolerated as long as no stripe has more than m strips unusable.
//
// The manifest's version picks the path. A version 5 set is probed
// without checksums: the probe opens and size-checks every shard, and
// the ones missing, truncated or unreadable are erased. The stream then
// checks every strip it reads against the manifest's strip sums before
// the stripe is decoded or written (split over Options.Workers with the
// decoding). A strip that fails erases its shard for that stripe alone
// (the shard is reported StateCorrupt and quarantined), every
// reconstructed strip must match its sum too, and a stripe with more
// than m strips unusable ends the decode in an *UnrecoverableError
// before its batch is written. So each survivor is read once, and
// silent corruption needs no restart, even into a writer that cannot
// rewind. Options.Heal does not apply.
//
// Sets of versions 1–4 have only whole-shard checksums. Their up-front
// probe (stat + streamed CRC-32, O(1) memory) classifies every shard:
// clean, soft-quarantined (present but checksum-corrupt), or
// hard-erased (missing, truncated, unreadable). Recovery then picks a
// rung of the degradation ladder:
//
//   - no hard losses, but quarantined shards (or Options.Heal): stream
//     all k+m columns and run the paper's single-column error correction
//     per stripe, falling back to erasure-decoding the quarantined
//     columns for stripes whose corruption is not single-column;
//   - 1..m unusable shards: classic erasure decode of the survivors;
//   - more: a typed *UnrecoverableError naming every failed shard.
//
// Their stream's rolling CRCs re-verify every column end to end, and a
// column that fails them is quarantined and the decode restarts without
// it.
//
// On either path transient read errors are retried with capped
// exponential backoff (Options.Retry), and a shard whose read fails
// mid-stream is quarantined and the decode restarts without it when w
// is rewindable, i.e. an *os.File; into any other writer the decode
// fails with the quarantine's cause instead. Shards are read batch by
// batch, one positional read per shard per batch, straight into a
// pooled batch of about 1 MiB (Options.BatchStripes overrides the
// size). A decode of more than two batches holds two: a reader
// goroutine reads (and on version 5 checks) the next batch while the
// caller decodes and writes this one, and errors still come back in
// stripe order. So resident memory grows with the file only by a
// version 5 manifest's strip sums, 4 bytes per strip per shard: 7.5 KB
// (10 KB of base64 in the manifest) for a 64 MiB liberation object at
// k=8, p=11 and 4 KiB elements, and 0.1% of the shard bytes (0.13% in
// base64) for rs3 at 4 KiB elements. A cancelled Options.Context stops
// the decode before its next batch.
func DecodeReport(manifestPath string, w io.Writer, opt Options) (_ *Report, err error) {
	var m *Manifest
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.decode",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		if m != nil {
			sp.Bytes(int(m.FileSize))
		}
		sp.End(err)
		stampFlight(ctx, err)
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
	countShardOp(opt.Registry, "decode", m.Code)

	r := newRecovery(m, code, opt, st, ctx, filepath.Dir(manifestPath))
	r.strips, r.ahead = m.Version >= 5, true
	sink := &decodeSink{w: w, m: m}
	err = r.run(sink)
	return r.rep, err
}

// RepairOpts reconstructs missing or corrupt shards in place and
// returns the indices repaired. It shares the probe, the degradation
// ladder, and the bounded-memory stripe loop with DecodeReport, but
// routes the reconstructed strips into fresh shard files written next
// to the originals: each repaired shard streams into a temporary file
// whose rolling CRC must reproduce the manifest checksum before it is
// synced and renamed over the broken shard, so a failed repair (a
// cancelled Options.Context included) never clobbers anything.
//
// Because nothing is renamed until every rolling CRC matches, the first
// attempt skips the probe's checksum pass: it opens and size-checks the
// shards, erasure-decodes the ones missing or the wrong size, and lets
// the stream's rolling CRCs verify each survivor in the one read it
// takes. When no survivor is corrupt, that is the whole repair. When
// one is, its checksum misses at the end of that stream, and the repair
// restarts into the ladder with the checksums the stream rolled as the
// probe's verdicts, so the corrupt shard is rebuilt or corrected and no
// survivor is read more than twice, as with a probe before the stream.
// A read that fails restarts into the full checksum probe. Options.Heal
// applies only after a checksum probe: with no suspect known,
// correcting in stream could leave a corrupt shard as it is on disk.
// Repair uses the whole-shard checksums on every manifest version;
// only DecodeReport checks strip by strip.
func RepairOpts(manifestPath string, opt Options) (_ []int, err error) {
	var m *Manifest
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.repair",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		if m != nil {
			sp.Bytes(int(m.FileSize))
		}
		sp.End(err)
		stampFlight(ctx, err)
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
	countShardOp(opt.Registry, "repair", m.Code)

	dir := filepath.Dir(manifestPath)
	r := newRecovery(m, code, opt, st, ctx, dir)
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
	// corrector is the code's single-column error correction capability,
	// nil when the code does not provide one — the ladder then skips the
	// correction rung and goes straight to erasure decode.
	corrector core.ColumnCorrector
	opt       Options
	reg       *obs.Registry
	st        store.Store
	ctx       context.Context // carries the operation's trace
	dir       string
	// strips makes the stream check every strip against the manifest's
	// strip sums (a version 5 decode): the probe reads no checksums on
	// any attempt, and a strip that fails is erased for its stripe.
	strips bool
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

// newRecovery wires up the attempt loop, discovering the code's
// correction capability by interface assertion rather than by name.
func newRecovery(m *Manifest, code core.Code, opt Options, st store.Store,
	ctx context.Context, dir string) *recovery {
	r := &recovery{m: m, code: code, opt: opt, reg: opt.Registry, st: st, ctx: ctx, dir: dir}
	r.corrector, _ = code.(core.ColumnCorrector)
	return r
}

// run executes probe → ladder → stream attempts until one succeeds, the
// quarantine budget is exhausted, or the error is not a mid-stream
// quarantine.
//
// Repair's first attempt is the fast pass (see RepairOpts): the probe
// reads no checksums and the stream's rolling CRCs verify the
// survivors. A failed fast pass quarantines nothing and is not charged
// to the attempt budget. A checksum miss restarts with the checksums
// the stream rolled, which the probe takes instead of reading the
// shards again; a read failure or an unrecoverable verdict restarts
// into the full probe. A version 5 decode's probe reads no checksums
// on any attempt: its stream checks every strip.
func (r *recovery) run(sink recoverSink) error {
	r.rep = &Report{}
	r.forced = make(map[int]error)
	r.counted = make(map[int]bool)
	defer sink.abort()
	// The budget bounds the restart loop defensively; the quarantine
	// budget (at most m hard erasures) terminates it much earlier.
	budget := r.m.M + 3
	// sums are the checksums the next probe takes instead of reading
	// the shards; nil makes it read them (see probeShards).
	var sums map[int]uint32
	_, fast := sink.(*repairSink)
	if fast || r.strips {
		sums = map[int]uint32{}
	}
	for {
		r.rep.Attempts++
		actx, asp := obs.StartOp(r.ctx, nil, r.reg, "shard.attempt",
			slog.Int("attempt", r.rep.Attempts))
		files, status, hard, soft := probeShards(actx, r.m, r.dir, r.st, r.reg, r.forced, sums)
		r.rep.Status = status
		r.noteQuarantines(actx, status)
		err := r.attempt(actx, files, status, hard, soft, sink, r.opt.Heal && sums == nil)
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		asp.End(err)
		if err == nil {
			if len(hard)+len(soft)+len(r.rep.Quarantined) > 0 {
				r.rep.Degraded = true
			}
			return nil
		}
		if !r.strips {
			sums = nil
		}
		var q *quarantineError
		if fast {
			fast = false
			budget++
			var u *UnrecoverableError
			if errors.As(err, &q) || errors.As(err, &u) {
				attrs := []obs.Attr{slog.Int("attempt", r.rep.Attempts)}
				if q != nil {
					attrs = append(attrs, slog.Int("shard", q.col), slog.String("name", r.m.ShardName(q.col)))
					sums = q.sums
				}
				obs.EmitErr(r.ctx, slog.LevelWarn, "shard.fastpass.miss", err, attrs...)
				continue
			}
		}
		if !errors.As(err, &q) {
			return err
		}
		if r.rep.Attempts >= budget {
			return &UnrecoverableError{Status: r.rep.Status,
				Reason: fmt.Sprintf("gave up after %d attempts: %v", r.rep.Attempts, q)}
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
	r.reg.Count("shard.quarantine.total", 1)
	obs.EmitErr(ctx, slog.LevelWarn, "shard.quarantine", st.Err, append([]obs.Attr{
		slog.Int("shard", st.Index), slog.String("name", st.Name),
		slog.String("state", st.State.String())}, attrs...)...)
}

// stripFailed records that shard i's strip in stripe failed its strip
// sum. The first failure of a shard marks it StateCorrupt, quarantines
// it, and names it in shard.unhealthy and shard.quarantine events with
// the stripe; later strips of the same shard are erased just the same
// but not reported again.
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

// attempt runs one rung of the degradation ladder over one streaming
// pass, recording which rung was chosen as a shard.rung event in the
// attempt's trace. heal is Options.Heal after a checksum probe and false
// otherwise: with no suspects known, a correction rung could heal a
// corrupt survivor in stream and leave it corrupt on disk.
func (r *recovery) attempt(ctx context.Context, files []store.File, status []ShardStatus, hard, soft []int, sink recoverSink, heal bool) error {
	if len(hard) > r.m.M {
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards beyond repair, can tolerate %d", len(hard), r.m.M)}
	}
	if len(hard) == 0 && (len(soft) > 0 || heal) {
		// Correction-first — except that a sink that cannot rewind (a
		// plain io.Writer) must not gamble on a rung that may need a
		// quarantine restart when the plain erasure rung would do.
		if heal || len(soft) > r.m.M || sink.canRestart() {
			if r.corrector == nil {
				// The code cannot localize silent corruption: record why
				// the heal rung was skipped and drop to erasure decode.
				r.reg.Count("shard.rung.skip.total", 1)
				obs.Emit(ctx, slog.LevelInfo, "shard.rung.skip",
					slog.String("rung", "correction"),
					slog.String("reason", "code lacks column correction"),
					slog.String("code", r.code.Name()),
					slog.Int("suspects", len(soft)))
			} else {
				obs.Emit(ctx, slog.LevelInfo, "shard.rung",
					slog.String("rung", "correction"), slog.Int("suspects", len(soft)))
				return r.correctionStream(ctx, files, soft, sink)
			}
		}
	}
	erased := make([]int, 0, len(hard)+len(soft))
	erased = append(erased, hard...)
	erased = append(erased, soft...)
	sort.Ints(erased)
	if len(erased) > r.m.M {
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards unusable, can tolerate %d", len(erased), r.m.M)}
	}
	obs.Emit(ctx, slog.LevelInfo, "shard.rung",
		slog.String("rung", "erasure"), slog.Int("erased", len(erased)))
	return r.erasureStream(ctx, files, erased, sink)
}

// erasureStream is the classic decode rung: the erased columns are
// reconstructed from the survivors, batch by batch. With r.strips every
// strip is checked against its strip sum in stream (see checkStrips and
// decodeChecked); otherwise rolling CRCs re-verify every column
// (streamed and reconstructed) against the manifest at the end.
func (r *recovery) erasureStream(ctx context.Context, files []store.File, erased []int, sink recoverSink) error {
	if err := sink.begin(erased); err != nil {
		return err
	}
	m := r.m
	streams := append([]store.File(nil), files...)
	for _, e := range erased {
		streams[e] = nil
	}
	workers := r.opt.workerCount()
	// The fill rolls the streamed columns' CRCs, use the erased ones'.
	var rolling []uint32
	if !r.strips {
		rolling = make([]uint32, m.NumShards())
	}
	decode := func(_ int, s *core.Stripe) error { return r.code.Decode(s, erased, nil) }
	fill := func(b *batch) error {
		if col, err := fillBatch(streams, b, rolling); err != nil {
			return &quarantineError{col: col, cause: err}
		}
		if r.strips {
			r.checkStrips(b, streams)
		}
		return nil
	}
	use := func(b *batch) error {
		switch {
		case r.strips:
			if err := r.decodeChecked(ctx, b, erased); err != nil {
				return err
			}
		case len(erased) > 0:
			if err := forEachStripe(b.live(), workers, decode); err != nil {
				return err
			}
			for _, e := range erased {
				rolling[e] = crc.Update(rolling[e], b.col(e))
			}
		}
		return sink.consume(b)
	}
	if err := streamBatches(ctx, r.shape(), m.Stripes, r.ahead, fill, use); err != nil {
		return err
	}
	if r.strips {
		// Every strip of a shard still StateOK matched its sum.
		for i, f := range streams {
			if f != nil && r.rep.Status[i].State == StateOK {
				r.rep.Status[i].Valid = true
			}
		}
		return sink.finish()
	}
	// Streamed columns first: a mismatch there means the shard is corrupt
	// (on the fast pass) or changed while streaming, and is grounds for a
	// restart. The error carries every streamed column's checksum, which
	// a restart after the fast pass takes as its probe's verdicts.
	for i, sum := range rolling {
		if streams[i] != nil && sum != m.Checksums[i] {
			sums := make(map[int]uint32, len(streams))
			for j, f := range streams {
				if f != nil {
					sums[j] = rolling[j]
				}
			}
			return &quarantineError{col: i, sums: sums, cause: fmt.Errorf(
				"shard %d (%s) streamed checksum %08x, manifest %08x",
				i, m.ShardName(i), sum, m.Checksums[i])}
		}
	}
	// Reconstructed columns second: with all inputs verified, a mismatch
	// here cannot be pinned on any shard.
	for _, e := range erased {
		if rolling[e] != m.Checksums[e] {
			return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
				"reconstructed shard %d fails its manifest checksum", e)}
		}
	}
	return sink.finish()
}

// checkStrips is the fill side of a version 5 decode: it checks every
// streamed strip of the batch against its strip sum, split over the
// workers, and records the ones that fail on the batch (b.failed) for
// decodeChecked to erase and report. It touches nothing but the batch,
// so it may run ahead of the caller.
func (r *recovery) checkStrips(b *batch, streams []store.File) {
	if len(b.failed) < b.n {
		b.failed = make([][]int, len(b.stripes))
	}
	for j := range b.failed {
		b.failed[j] = b.failed[j][:0]
	}
	forEachStripe(b.live(), r.opt.workerCount(), func(j int, s *core.Stripe) error {
		for i, f := range streams {
			if f != nil && !r.m.stripOK(i, b.first+j, s.Strips[i]) {
				b.failed[j] = append(b.failed[j], i)
			}
		}
		return nil
	})
}

// decodeChecked is a version 5 decode's coding step for one batch that
// checkStrips has checked: decodeStripe runs on every stripe, split over
// the workers. Once the stripes are done, one pass in stripe order
// reports their failed strips up to the first stripe that failed and
// returns that stripe's error alone, before the batch reaches the sink.
func (r *recovery) decodeChecked(ctx context.Context, b *batch, erased []int) error {
	failed := b.failed[:b.n]
	errs := make([]error, b.n)
	forEachStripe(b.live(), r.opt.workerCount(), func(j int, s *core.Stripe) error {
		errs[j] = r.decodeStripe(s, b.first+j, erased, failed[j])
		return errs[j]
	})
	for j, bad := range failed {
		for _, i := range bad {
			r.stripFailed(ctx, i, b.first+j)
		}
		if errs[j] != nil {
			return errs[j]
		}
	}
	return nil
}

// decodeStripe decodes one stripe of a version 5 decode: the strips that
// failed their sums in this stripe are erased for it alone, on top of
// the shards erased for the whole stream, and every reconstructed strip
// must match its sum as well. A stripe with more than m strips unusable
// fails without decoding.
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
		if !m.stripOK(e, stripe, s.Strips[e]) {
			return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
				"stripe %d: reconstructed shard %d fails its strip sum", stripe, e)}
		}
	}
	return nil
}

// correctionStream is the silent-corruption rung: all k+m columns stream
// (including soft-quarantined ones) and every stripe is checked — and
// healed — with the paper's single-column error correction. Stripes
// whose corruption is not confined to one column fall back to erasure-
// decoding the quarantined columns; rolling CRCs of the corrected
// columns must reproduce the manifest checksums at the end.
func (r *recovery) correctionStream(ctx context.Context, files []store.File, soft []int, sink recoverSink) error {
	if err := sink.begin(soft); err != nil {
		return err
	}
	m := r.m
	rolling := make([]uint32, m.NumShards())
	fill := func(b *batch) error {
		if col, err := fillBatch(files, b, nil); err != nil {
			return &quarantineError{col: col, cause: err}
		}
		return nil
	}
	use := func(b *batch) error {
		for j, s := range b.live() {
			var cops core.Ops
			col, cerr := r.corrector.CorrectColumn(s, &cops)
			r.reg.Count("shard.correct_column.xors", cops.XORs)
			switch {
			case cerr == nil && col != core.CleanColumn:
				r.rep.Corrections++
				r.reg.Count("shard.correct_column.total", 1)
				obs.Emit(ctx, slog.LevelInfo, "shard.correct_column",
					slog.Int("stripe", b.first+j), slog.Int("col", col))
			case cerr != nil:
				r.reg.Count("shard.correct_column.failed", 1)
				obs.EmitErr(ctx, slog.LevelWarn, "shard.correct_column.fallback", cerr,
					slog.Int("stripe", b.first+j), slog.Int("suspects", len(soft)))
				switch {
				case len(soft) >= 1 && len(soft) <= r.m.M:
					// Not single-column, but we know which columns are
					// suspect: erasure-decode them for this stripe.
					if derr := r.code.Decode(s, soft, nil); derr != nil {
						return derr
					}
				case len(soft) == 0:
					// Healing scan with no suspects: leave the stripe
					// as read and let the end-of-stream rolling CRCs
					// quarantine whichever column misbehaved.
				default:
					return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
						"stripe %d: corruption spans multiple columns and %d shards are quarantined",
						b.first+j, len(soft))}
				}
			}
		}
		for i := range rolling {
			rolling[i] = crc.Update(rolling[i], b.col(i))
		}
		return sink.consume(b)
	}
	if err := streamBatches(ctx, r.shape(), m.Stripes, r.ahead, fill, use); err != nil {
		return err
	}
	// Post-correction columns must reproduce the manifest exactly; a
	// mismatch means the column misbehaved in a way correction could not
	// pin down — quarantine it and retry on the erasure rung.
	for i, sum := range rolling {
		if sum != m.Checksums[i] {
			return &quarantineError{col: i, cause: fmt.Errorf(
				"shard %d (%s) still corrupt after correction: checksum %08x, manifest %08x",
				i, m.ShardName(i), sum, m.Checksums[i])}
		}
	}
	return sink.finish()
}

// recoverSink receives the recovered stripes of one attempt. begin is
// called at the start of every attempt (a restart must rewind), consume
// after each batch is decoded/corrected, finish on success, and abort
// exactly once when the recovery ends (success or not).
type recoverSink interface {
	begin(targets []int) error
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

// repairSink streams each target column into a temporary file; finish
// verifies, syncs, and renames them over the broken shards, so a failed
// repair never clobbers anything. Restarts recreate the temp files.
type repairSink struct {
	m   *Manifest
	st  store.Store
	dir string

	targets  []int
	files    map[int]store.File
	rolling  map[int]uint32
	repaired []int
}

func (s *repairSink) tmpPath(e int) string {
	return filepath.Join(s.dir, s.m.ShardName(e)+".repair")
}

func (s *repairSink) begin(targets []int) error {
	s.cleanup()
	s.targets = append([]int(nil), targets...)
	s.files = make(map[int]store.File, len(targets))
	s.rolling = make(map[int]uint32, len(targets))
	for _, e := range targets {
		f, err := s.st.Create(s.tmpPath(e))
		if err != nil {
			return err
		}
		s.files[e] = f
	}
	return nil
}

func (s *repairSink) consume(b *batch) error {
	for _, e := range s.targets {
		if err := writeCol(s.files[e], b, e); err != nil {
			return err
		}
		s.rolling[e] = crc.Update(s.rolling[e], b.col(e))
	}
	return nil
}

func (s *repairSink) finish() error {
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
