package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
)

// encodeCLIFixture writes a random blob and encodes it through the real
// subcommand, returning the blob content and the manifest path.
func encodeCLIFixture(t *testing.T, dir string, size int) ([]byte, string) {
	t.Helper()
	blob := filepath.Join(dir, "blob.bin")
	content := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(content)
	if err := os.WriteFile(blob, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("encode", []string{"-k", "4", "-elem", "512", "-out", dir, "-workers", "2", blob}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return content, filepath.Join(dir, "blob.bin.manifest.json")
}

// TestCLIRoundTrip drives encode -> damage -> decode -> repair through the
// real subcommand entry points.
func TestCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	content, manifest := encodeCLIFixture(t, dir, 50_000)
	if err := run("info", []string{manifest}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run("verify", []string{manifest}); err != nil {
		t.Fatalf("verify clean: %v", err)
	}

	// Lose a data shard, corrupt the P shard.
	if err := os.Remove(filepath.Join(dir, "blob.bin.shard.d02")); err != nil {
		t.Fatal(err)
	}
	pShard := filepath.Join(dir, "blob.bin.shard.p")
	b, err := os.ReadFile(pShard)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xff
	if err := os.WriteFile(pShard, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Degraded but recoverable: verify warns yet succeeds (exit 0).
	if err := run("verify", []string{manifest}); err != nil {
		t.Fatalf("verify degraded: %v", err)
	}

	out := filepath.Join(dir, "recovered.bin")
	if err := run("decode", []string{"-out", out, manifest}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("recovered file differs from the original")
	}

	if err := run("repair", []string{manifest}); err != nil {
		t.Fatalf("repair: %v", err)
	}
	// Everything healthy now: a second repair is a no-op and all shards
	// verify.
	if err := run("repair", []string{manifest}); err != nil {
		t.Fatalf("second repair: %v", err)
	}
	if err := run("verify", []string{manifest}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

// TestVerifyNamesFailingStripes: verify prints each unusable shard's
// cause on its line, so the stripes that fail their sums reach the
// operator. The version 5 set has d01 removed and one byte flipped in
// stripe 0 of d00 and in the last stripe of p.
func TestVerifyNamesFailingStripes(t *testing.T) {
	dir := t.TempDir()
	blob := filepath.Join(dir, "blob.bin")
	content := make([]byte, 200_000)
	rand.New(rand.NewSource(5)).Read(content)
	if err := os.WriteFile(blob, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("encode", []string{"-k", "4", "-elem", "1024", "-out", dir, blob}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	manifest := filepath.Join(dir, "blob.bin.manifest.json")
	m, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 5 || m.Stripes < 2 {
		t.Fatalf("fixture is version %d with %d stripes, want version 5 and several stripes", m.Version, m.Stripes)
	}
	if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
		t.Fatal(err)
	}
	last := m.Stripes - 1
	flip := func(i int, off int64) {
		path := filepath.Join(dir, m.ShardName(i))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[off] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(0, 7)
	flip(m.K, int64(last)*int64(m.W*m.ElemSize)+7) // p

	out, _ := captureBoth(t, func() error { return run("verify", []string{manifest}) })
	lines := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "shard" {
			lines[f[1]] = line
		}
	}
	for i, want := range map[int]string{
		0:   "corrupt: shard 0 (blob.bin.shard.d00): strips fail their sums in stripes [0]",
		1:   "missing: ",
		m.K: fmt.Sprintf("corrupt: shard %d (blob.bin.shard.p): strips fail their sums in stripes [%d]", m.K, last),
	} {
		if line := lines[m.ShardName(i)]; !strings.Contains(line, want) {
			t.Errorf("verify line of %s = %q, want it to contain %q\noutput:\n%s", m.ShardName(i), line, want, out)
		}
	}
}

// TestDecodePrintsStandbys: decode reads the first k usable shards and
// leaves the rest as standbys, which it prints as "ok (not read)". With
// d01 removed from a k=4 set it reads d00, d02, d03 and p, so q is the
// one standby; verify, which reads every shard, prints q plain "ok".
func TestDecodePrintsStandbys(t *testing.T) {
	dir := t.TempDir()
	_, manifest := encodeCLIFixture(t, dir, 50_000)
	if err := os.Remove(filepath.Join(dir, "blob.bin.shard.d01")); err != nil {
		t.Fatal(err)
	}
	lines := func(out string) map[string]string {
		got := map[string]string{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "shard" {
				got[f[1]] = strings.Join(f[2:], " ")
			}
		}
		return got
	}
	out, _ := captureBoth(t, func() error {
		return run("decode", []string{"-out", filepath.Join(dir, "recovered.bin"), manifest})
	})
	got := lines(out)
	for name, want := range map[string]string{
		"blob.bin.shard.d00": "ok", "blob.bin.shard.d02": "ok", "blob.bin.shard.d03": "ok",
		"blob.bin.shard.p": "ok", "blob.bin.shard.q": "ok (not read)",
	} {
		if got[name] != want {
			t.Errorf("decode prints %s as %q, want %q\noutput:\n%s", name, got[name], want, out)
		}
	}
	if !strings.HasPrefix(got["blob.bin.shard.d01"], "missing (reconstructed)") {
		t.Errorf("decode prints d01 as %q, want it missing (reconstructed)", got["blob.bin.shard.d01"])
	}
	out, _ = captureBoth(t, func() error { return run("verify", []string{manifest}) })
	if q := lines(out)["blob.bin.shard.q"]; q != "ok" {
		t.Errorf("verify prints q as %q, want %q", q, "ok")
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run("bogus", nil); err != errUsage {
		t.Errorf("unknown subcommand gave %v", err)
	}
	if err := run("encode", []string{"-k", "4"}); err == nil {
		t.Error("encode without a file accepted")
	}
	if err := run("decode", []string{filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("decode with missing manifest accepted")
	}
	if err := run("repair", []string{}); err == nil {
		t.Error("repair without manifest accepted")
	}
	if err := run("info", []string{filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("info with missing manifest accepted")
	}
}

// TestCLIExitCodes pins the exit-code contract: 0 for clean and
// recovered-degraded runs, 2 for unrecoverable sets, 64 for usage
// errors, 1 otherwise.
func TestCLIExitCodes(t *testing.T) {
	if got := realMain(nil); got != exitUsage {
		t.Errorf("no args: exit %d, want %d", got, exitUsage)
	}
	for _, sub := range []string{"bogus", "watch"} {
		if got := realMain([]string{sub}); got != exitUsage {
			t.Errorf("bad subcommand %q: exit %d, want %d", sub, got, exitUsage)
		}
	}
	if got := realMain([]string{"decode", "-no-such-flag", "x"}); got != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", got, exitUsage)
	}
	if got := realMain([]string{"decode", filepath.Join(t.TempDir(), "absent.json")}); got != exitFail {
		t.Errorf("missing manifest: exit %d, want %d", got, exitFail)
	}

	dir := t.TempDir()
	_, manifest := encodeCLIFixture(t, dir, 20_000)

	// A negative retry budget or backoff is refused, not read as the
	// default policy.
	for _, flags := range [][]string{{"-retries", "-1"}, {"-retry-backoff", "-1ms"}} {
		if got := realMain(append(append([]string{"verify"}, flags...), manifest)); got != exitUsage {
			t.Errorf("verify %v: exit %d, want %d", flags, got, exitUsage)
		}
	}
	// An element size below 1 is a parameter error (exit 1, like -k 0),
	// not a panic, and leaves no shard behind.
	for _, args := range [][]string{{"-k", "0"}, {"-elem", "0"}, {"-elem", "-1"}} {
		out := t.TempDir()
		argv := append(append([]string{"encode"}, args...), "-out", out, filepath.Join(dir, "blob.bin"))
		if got := realMain(argv); got != exitFail {
			t.Errorf("encode %v: exit %d, want %d", args, got, exitFail)
		}
		if left, _ := os.ReadDir(out); len(left) != 0 {
			t.Errorf("encode %v left %d files behind", args, len(left))
		}
	}

	// One shard down: decode recovers in degraded mode and exits 0.
	if err := os.Remove(filepath.Join(dir, "blob.bin.shard.d01")); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "recovered.bin")
	if got := realMain([]string{"decode", "-out", out, manifest}); got != exitOK {
		t.Errorf("degraded decode: exit %d, want %d", got, exitOK)
	}

	// Three shards down: unrecoverable, exit 2, and no partial output
	// file left behind.
	for _, name := range []string{"blob.bin.shard.d02", "blob.bin.shard.p"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	os.Remove(out)
	if got := realMain([]string{"decode", "-out", out, manifest}); got != exitUnrecoverable {
		t.Errorf("unrecoverable decode: exit %d, want %d", got, exitUnrecoverable)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("partial output left behind after failed decode: %v", err)
	}
	if got := realMain([]string{"verify", manifest}); got != exitUnrecoverable {
		t.Errorf("unrecoverable verify: exit %d, want %d", got, exitUnrecoverable)
	}
}

// TestCLIChaosGate checks that fault injection stays behind the
// environment opt-in: without RAIDCLI_CHAOS the flags are a usage error;
// with it, a seeded profile runs the whole pipeline.
func TestCLIChaosGate(t *testing.T) {
	dir := t.TempDir()
	content, manifest := encodeCLIFixture(t, dir, 20_000)

	if err := run("decode", []string{"-fault-profile", "latency", manifest}); exitCode(err) != exitUsage {
		t.Errorf("ungated -fault-profile: err %v (exit %d), want usage error", err, exitCode(err))
	}

	t.Setenv("RAIDCLI_CHAOS", "1")
	if err := run("decode", []string{"-fault-profile", "no-such-profile", manifest}); exitCode(err) != exitUsage {
		t.Errorf("unknown profile: err %v, want usage error", err)
	}
	out := filepath.Join(dir, "recovered.bin")
	if err := run("decode",
		[]string{"-fault-profile", "bitrot", "-fault-seed", "7", "-retries", "4", "-retry-backoff", "100us",
			"-out", out, manifest}); err != nil {
		t.Fatalf("chaos decode: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("chaos decode produced wrong bytes")
	}
}
