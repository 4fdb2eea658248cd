package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/shard"
)

var tracePattern = regexp.MustCompile(`(?m)^trace: ([0-9a-f]{16})$`)

// captureBoth runs fn with both stdout and stderr redirected.
func captureBoth(t *testing.T, fn func() error) (stdout, stderr string) {
	t.Helper()
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	stdout = capture(t, fn)
	w.Close()
	os.Stderr = oldErr
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return stdout, string(buf[:n])
}

func traceFixture(t *testing.T) (dir, blob, manifest string) {
	t.Helper()
	dir = t.TempDir()
	blob = filepath.Join(dir, "data.bin")
	payload := make([]byte, 7000)
	rand.New(rand.NewSource(9)).Read(payload)
	if err := os.WriteFile(blob, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	capture(t, func() error {
		return run("encode", []string{"-k", "4", "-elem", "64", "-out", dir, blob})
	})
	return dir, blob, filepath.Join(dir, "data.bin.manifest.json")
}

// TestTraceIDPrinted checks the trace-surfacing contract: -stats prints
// the operation's trace ID for encode/decode/repair, and verify prints
// it unconditionally.
func TestTraceIDPrinted(t *testing.T) {
	dir, blob, manifest := traceFixture(t)

	out := capture(t, func() error {
		return run("encode", []string{"-k", "4", "-elem", "64", "-out", dir, "-stats", blob})
	})
	if !tracePattern.MatchString(out) {
		t.Errorf("encode -stats did not print a trace ID:\n%s", out)
	}

	out = capture(t, func() error {
		return run("decode", []string{"-out", filepath.Join(dir, "rec.bin"), "-stats", manifest})
	})
	if !tracePattern.MatchString(out) {
		t.Errorf("decode -stats did not print a trace ID:\n%s", out)
	}

	// verify: always, with no flags at all.
	out = capture(t, func() error {
		return run("verify", []string{manifest})
	})
	if !tracePattern.MatchString(out) {
		t.Errorf("verify did not print a trace ID:\n%s", out)
	}

	// Without -stats or -log-json, decode stays quiet about the trace.
	out = capture(t, func() error {
		return run("decode", []string{"-out", filepath.Join(dir, "rec2.bin"), manifest})
	})
	if tracePattern.MatchString(out) {
		t.Errorf("decode printed a trace ID without -stats/-log-json:\n%s", out)
	}
}

// asVersion4 rewrites a freshly encoded manifest as version 4: the same
// fields without the strip sums, which is exactly the version 4 format.
func asVersion4(t *testing.T, manifest string) {
	t.Helper()
	m, err := shard.LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	m.Version, m.StripSums = 4, nil
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// logJSONDecode flips a byte of stripe 0 of shard d01, decodes under
// -log-json, and returns the stderr stream's JSON lines after checking
// that each carries the trace ID printed on stdout.
func logJSONDecode(t *testing.T, dir, manifest string) []map[string]any {
	t.Helper()
	shardPath := filepath.Join(dir, "data.bin.shard.d01")
	b, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := os.WriteFile(shardPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	stdout, stderr := captureBoth(t, func() error {
		return run("decode", []string{"-out", filepath.Join(dir, "rec.bin"), "-log-json", manifest})
	})
	match := tracePattern.FindStringSubmatch(stdout)
	if match == nil {
		t.Fatalf("decode -log-json did not print a trace ID:\n%s", stdout)
	}
	trace := match[1]

	var recs []map[string]any
	for _, line := range strings.Split(stderr, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // the degraded-mode warning shares stderr
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
		if rec["trace"] != trace {
			t.Errorf("log line %v in trace %v, want %v", rec["msg"], rec["trace"], trace)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestLogJSON runs a degraded decode under -log-json, of the encoded
// version 5 set and of the set rewritten as version 4, and checks the
// stderr stream is JSON lines carrying the causal record — the probe,
// and one health verdict and one quarantine of shard 1 — all correlated
// to the trace ID printed on stdout. On version 5 the decode finds the
// corrupt strip in stream, so the probe reads no checksums and both
// lines name stripe 0. On version 4 the probe reads every shard, and
// shard 1, whose checksum fails, is erased whole with no stripe named.
func TestLogJSON(t *testing.T) {
	for _, version := range []int{5, 4} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir, _, manifest := traceFixture(t)
			v4 := version == 4
			var stripe any = 0.0 // JSON numbers decode as float64
			if v4 {
				asVersion4(t, manifest)
				stripe = nil
			}
			names := make(map[string]int)
			for _, rec := range logJSONDecode(t, dir, manifest) {
				msg := rec["msg"].(string)
				names[msg]++
				switch msg {
				case "shard.probe":
					if rec["checksums"] != v4 {
						t.Errorf("shard.probe line %v, want checksums=%v", rec, v4)
					}
				case "shard.unhealthy", "shard.quarantine":
					if rec["shard"] != 1.0 || rec["stripe"] != stripe || rec["state"] != "corrupt" {
						t.Errorf("%s line %v, want shard=1 stripe=%v state=corrupt", msg, rec, stripe)
					}
				}
			}
			for want, n := range map[string]int{"raidcli.decode": 1, "shard.decode": 1, "shard.probe": 1,
				"shard.unhealthy": 1, "shard.quarantine": 1} {
				if names[want] != n {
					t.Errorf("event log has %d %q lines, want %d (have %v)", names[want], want, n, names)
				}
			}
		})
	}
}
