package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// instantSleep replaces real backoff waits in chaos runs: retries stay
// bounded and ordered but the soak spends no wall clock sleeping.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// chaosAccepted reports whether a chaos-run failure is one of the typed,
// documented outcomes: an *UnrecoverableError naming the failed shards,
// or a classified store fault (including a vanished file).
func chaosAccepted(err error) bool {
	var u *UnrecoverableError
	var f *store.Fault
	return errors.As(err, &u) || errors.As(err, &f) ||
		errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrManifest)
}

// assertNoRepairTemps fails the test if an unfinished repair left its
// temporary files behind.
func assertNoRepairTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".repair") {
			t.Errorf("leaked repair temp file %q", e.Name())
		}
	}
}

// soakAsVersion4 picks, from a soak schedule's seed alone, whether the
// schedule rewrites its freshly encoded set as version 4 before decoding.
// About half do, so the soaks cover the version 1-4 decode (a probe that
// reads every shard and rolls its strip sums, and the end-of-stream check
// of shards erased whole) beside version 5's recorded sums. The pick is the top bit of a Fibonacci hash of the seed, which
// no profile, family or shape cycle of a soak aliases.
func soakAsVersion4(seed int64) bool {
	return uint64(seed)*0x9e3779b97f4a7c15>>63 == 1
}

// TestChaosSoak replays seeded fault schedules over the full
// encode → decode → repair path: every named profile, hundreds (or, via
// CHAOS_SCHEDULES, thousands) of seeds, about half of them decoding a
// version 4 set (soakAsVersion4). The invariant is absolute — each
// operation either round-trips byte-identical data or fails with a clean
// typed error, and never panics, leaves a partial shard set, or leaks a
// repair temp file. Any failure reproduces from its seed alone.
func TestChaosSoak(t *testing.T) {
	schedules := 400
	if testing.Short() {
		schedules = 64
	}
	if env := os.Getenv("CHAOS_SCHEDULES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("CHAOS_SCHEDULES=%q: %v", env, err)
		}
		schedules = n
	}

	const size = 3*5*32*6 + 41 // k=3, w=5, elem=32: six stripes and change
	content := make([]byte, size)
	rand.New(rand.NewSource(2026)).Read(content)
	profiles := faultstore.Profiles()
	root := t.TempDir()

	var encodeFailed, decodeFailed, degraded, v4 int
	for i := 0; i < schedules; i++ {
		seed := int64(i + 1)
		profile := profiles[i%len(profiles)]
		cfg, err := faultstore.Profile(profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		faulty := faultstore.New(store.OS{}, cfg)
		opt := Options{
			Store: faulty,
			Retry: store.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: seed, Sleep: instantSleep},
		}
		dir := filepath.Join(root, fmt.Sprintf("s%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}

		m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 3, 0, 32, dir, opt)
		if err != nil {
			if !chaosAccepted(err) {
				t.Fatalf("profile=%s seed=%d: encode failed untyped: %v", profile, seed, err)
			}
			entries, rdErr := os.ReadDir(dir)
			if rdErr != nil {
				t.Fatal(rdErr)
			}
			for _, e := range entries {
				t.Fatalf("profile=%s seed=%d: failed encode left %q behind", profile, seed, e.Name())
			}
			encodeFailed++
			continue
		}
		if soakAsVersion4(seed) {
			asVersion4(t, dir, m)
			v4++
		}

		out, err := os.Create(filepath.Join(dir, "out.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), out, opt)
		out.Close()
		if err != nil {
			if !chaosAccepted(err) {
				t.Fatalf("profile=%s seed=%d: decode failed untyped: %v", profile, seed, err)
			}
			decodeFailed++
		} else {
			got, rdErr := os.ReadFile(out.Name())
			if rdErr != nil {
				t.Fatal(rdErr)
			}
			if !bytes.Equal(got, content) {
				t.Fatalf("profile=%s seed=%d: decode succeeded with wrong bytes", profile, seed)
			}
			if rep.Degraded {
				degraded++
			}
		}
		os.Remove(out.Name())

		// Repair under the same schedule: it must either heal the set or
		// fail typed, and its temp files must never survive.
		if _, err := RepairOpts(filepath.Join(dir, ManifestName(m.FileName)), opt); err != nil && !chaosAccepted(err) {
			t.Fatalf("profile=%s seed=%d: repair failed untyped: %v", profile, seed, err)
		}
		assertNoRepairTemps(t, dir)
		os.RemoveAll(dir)
	}
	t.Logf("%d schedules: %d encode failures, %d decode failures, %d degraded decodes, %d sets decoded as version 4",
		schedules, encodeFailed, decodeFailed, degraded, v4)
}

// TestDegradedHealMetrics pins the headline acceptance scenario: shard 1
// corrupt on disk in stripe 0, and a one-off read-path bit-flip on the
// stream's read of shard 3. The decode into a writer that cannot rewind
// recovers the original bytes in one attempt, with both shards
// quarantined and counted in shard.quarantine.total. On version 5 both
// corrupt strips fail their recorded strip sums and are erased for their
// stripes. On version 4 the probe reads every shard: shard 1 fails its
// checksum and is erased whole, and After:1 lands the flip on the
// stream's read of shard 3, after the probe's, where the strip it hits
// fails the sum the probe rolled.
func TestDegradedHealMetrics(t *testing.T) {
	for _, version := range []int{5, 4} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir, content, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
			after := 0
			if version == 4 {
				asVersion4(t, dir, m)
				after = 1
			}
			path := filepath.Join(dir, m.ShardName(1))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 3, Rules: []faultstore.Rule{
				{Path: m.ShardName(3), Op: faultstore.OpRead, Kind: faultstore.BitFlip, Prob: 1, Count: 1, After: after},
			}})

			reg := obs.NewRegistry()
			var out bytes.Buffer
			rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), struct{ io.Writer }{&out},
				Options{Store: faulty, Registry: reg})
			if err != nil {
				t.Fatalf("DecodeReport: %v", err)
			}
			if !bytes.Equal(out.Bytes(), content) {
				t.Fatal("degraded decode produced wrong bytes")
			}
			if !rep.Degraded || rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != "[1 3]" {
				t.Errorf("report: degraded %v, %d attempts, quarantined %v; want true, 1, [1 3]",
					rep.Degraded, rep.Attempts, rep.Quarantined)
			}
			if got := reg.Snapshot().Counters["shard.quarantine.total"]; got != 2 {
				t.Errorf("shard.quarantine.total = %d, want 2", got)
			}
		})
	}
}

// TestHealBeyondErasureBudget pins a decision about version 1–4 sets:
// three shards whose whole-shard checksums fail, in three different
// stripes, and none missing, are one more than the m=2 budget. Such a
// set records no strip sums, so nothing says which strips of those
// shards are bad; each is erased whole, and the set is unrecoverable.
// DecodeReport writes nothing, and DecodeReport, RepairOpts and Verify
// all return an *UnrecoverableError naming the three shards. (The
// version 5 twin recovers the same damage strip by strip.)
func TestHealBeyondErasureBudget(t *testing.T) {
	dir, _, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
	asVersion4(t, dir, m)
	stripBytes := 5 * 64
	for i, victim := range []int{0, 2, 5} { // two data columns and Q
		path := filepath.Join(dir, m.ShardName(victim))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[(i*2+1)*stripBytes] ^= 0x01 // stripes 1, 3, 5: never the same stripe
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	check := func(op string, err error) {
		t.Helper()
		var unrec *UnrecoverableError
		if !errors.As(err, &unrec) {
			t.Fatalf("%s = %v, want *UnrecoverableError", op, err)
		}
		if got := fmt.Sprint(unrec.Failed()); got != "[0 2 5]" {
			t.Errorf("%s names shards %s, want [0 2 5]", op, got)
		}
	}
	var out bytes.Buffer
	_, err := DecodeReport(manifest, &out, Options{})
	check("DecodeReport", err)
	if out.Len() != 0 {
		t.Errorf("unrecoverable decode wrote %d bytes", out.Len())
	}
	_, err = RepairOpts(manifest, Options{})
	check("RepairOpts", err)
	assertNoRepairTemps(t, dir)
	check("Verify", Verify(manifest, Options{}))
}

// TestHealBeyondErasureBudgetV5 is the version 5 twin of
// TestHealBeyondErasureBudget: three shards corrupt in three different
// stripes, one more shard than the erasure budget. Each stripe has one
// strip that fails its sum, and erasing it for that stripe alone
// decodes byte-identically, in one attempt, into a writer that cannot
// rewind.
func TestHealBeyondErasureBudgetV5(t *testing.T) {
	dir, content, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)
	stripBytes := 5 * 64
	for i, victim := range []int{0, 2, 5} { // two data columns and Q
		path := filepath.Join(dir, m.ShardName(victim))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[(i*2+1)*stripBytes] ^= 0x01 // stripes 1, 3, 5: never the same stripe
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), struct{ io.Writer }{&out}, Options{})
	if err != nil {
		t.Fatalf("DecodeReport with 3 corrupt shards: %v", err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("decode produced wrong bytes")
	}
	if rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != "[0 2 5]" {
		t.Errorf("%d attempts, quarantined %v; want 1, [0 2 5]", rep.Attempts, rep.Quarantined)
	}
	for _, i := range []int{0, 2, 5} {
		if rep.Status[i].State != StateCorrupt {
			t.Errorf("shard %d reported %v, want corrupt", i, rep.Status[i].State)
		}
	}
}

// TestVerifyLadder pins Verify's three outcomes: nil when clean, a
// *DegradedError while recovery is still possible, an
// *UnrecoverableError once it is not.
func TestVerifyLadder(t *testing.T) {
	dir, _, m := encodeTestFile(t, 6000, 4, 0, 64)
	manifest := filepath.Join(dir, ManifestName(m.FileName))

	if err := Verify(manifest, Options{}); err != nil {
		t.Fatalf("clean Verify = %v, want nil", err)
	}

	if err := os.Remove(filepath.Join(dir, m.ShardName(2))); err != nil {
		t.Fatal(err)
	}
	err := Verify(manifest, Options{})
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("one missing shard: Verify = %v, want *DegradedError", err)
	}
	if got := deg.Unusable(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Unusable = %v, want [2]", got)
	}
	if deg.Status[2].State != StateMissing {
		t.Errorf("shard 2 state = %v, want missing", deg.Status[2].State)
	}

	for _, i := range []int{0, 1} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
	err = Verify(manifest, Options{})
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("three missing shards: Verify = %v, want *UnrecoverableError", err)
	}
	if got := unrec.Failed(); len(got) != 3 {
		t.Errorf("Failed = %v, want three shards", got)
	}
}

// TestDecodeContextCancelled checks the cancellation plumbing: a decode
// whose context is already cancelled and whose store only ever fails
// transiently must stop promptly with the context error instead of
// burning the whole retry budget per read.
func TestDecodeContextCancelled(t *testing.T) {
	dir, _, m := encodeTestFile(t, 6000, 4, 0, 64)
	faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 1, Rules: []faultstore.Rule{
		{Op: faultstore.OpRead, Kind: faultstore.Transient, Prob: 1},
	}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	var out bytes.Buffer
	_, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, Options{
		Store:   faulty,
		Context: ctx,
		Retry:   store.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Second},
	})
	if err == nil {
		t.Fatal("decode with always-failing store succeeded")
	}
	if !errors.Is(err, context.Canceled) && !chaosAccepted(err) {
		t.Errorf("err = %v, want context cancellation or a typed fault", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled decode took %v, want prompt return", elapsed)
	}
}
