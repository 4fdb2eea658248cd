package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := make([]byte, 1<<20)
	n, _ := r.Read(out)
	r.Close()
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput: %s", runErr, out[:n])
	}
	return string(out[:n])
}

// TestStatsFlag checks the -stats summaries of encode, decode, and
// repair. Timing fields vary run to run, so the assertions cover the
// deterministic parts: span names, call/XOR accounting, and the
// XORs-per-parity-element rate pinned at the paper's k-1 bound.
func TestStatsFlag(t *testing.T) {
	dir := t.TempDir()
	blob := filepath.Join(dir, "data.bin")
	payload := make([]byte, 7000)
	rand.New(rand.NewSource(4)).Read(payload)
	if err := os.WriteFile(blob, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	out := capture(t, func() error {
		return run("encode", []string{"-k", "4", "-elem", "64", "-out", dir, "-stats", blob})
	})
	for _, want := range []string{
		"--- stats ---",
		"liberation.encode",
		"xors/unit=3.000", // exactly k-1 for k=4
		"(lower bound k-1 = 3)",
		"shard.encode",
		"p50=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("encode -stats output missing %q:\n%s", want, out)
		}
	}

	manifest := filepath.Join(dir, "data.bin.manifest.json")

	// A parallel encode bills the same k-1 XORs per parity element.
	out = capture(t, func() error {
		return run("encode", []string{"-k", "4", "-elem", "64", "-out", dir, "-workers", "2", "-stats", blob})
	})
	if line := statsLine(out, "liberation.encode"); !strings.Contains(line, "xors/unit=3.000") {
		t.Errorf("parallel encode -stats liberation.encode line does not read xors/unit=3.000:\n%s", out)
	}

	// Lose a shard: decode and repair must show decode spans.
	if err := os.Remove(filepath.Join(dir, "data.bin.shard.d01")); err != nil {
		t.Fatal(err)
	}
	recovered := filepath.Join(dir, "recovered.bin")
	out = capture(t, func() error {
		return run("decode", []string{"-out", recovered, "-stats", manifest})
	})
	for _, want := range []string{"--- stats ---", "liberation.decode", "shard.decode"} {
		if !strings.Contains(out, want) {
			t.Errorf("decode -stats output missing %q:\n%s", want, out)
		}
	}
	got, err := os.ReadFile(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Error("recovered file differs from original")
	}

	out = capture(t, func() error {
		return run("repair", []string{"-stats", manifest})
	})
	for _, want := range []string{"repaired shards [1]", "liberation.decode", "shard.repair"} {
		if !strings.Contains(out, want) {
			t.Errorf("repair -stats output missing %q:\n%s", want, out)
		}
	}

	// Without -stats, no summary appears.
	out = capture(t, func() error {
		return run("decode", []string{"-out", recovered, "-stats=false", manifest})
	})
	if strings.Contains(out, "--- stats ---") {
		t.Errorf("stats printed without -stats:\n%s", out)
	}
}

// TestStatsPipelineUnits pins the encode span's denominator under a
// parallel encode: liberation.encode bills parity elements (stripes × M ×
// W), so its xors/unit reads the k-1 bound rather than XORs per stripe,
// whichever goroutine coded each stripe.
func TestStatsPipelineUnits(t *testing.T) {
	dir := t.TempDir()
	blob := filepath.Join(dir, "data.bin")
	payload := make([]byte, 50000)
	rand.New(rand.NewSource(5)).Read(payload)
	if err := os.WriteFile(blob, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() error {
		return run("encode", []string{"-k", "8", "-p", "11", "-elem", "64", "-workers", "2",
			"-out", dir, "-stats", blob})
	})
	line := statsLine(out, "liberation.encode")
	if line == "" {
		t.Fatalf("no liberation.encode line in -stats output:\n%s", out)
	}
	if !strings.Contains(line, "xors/unit=7.000") || !strings.Contains(line, "(lower bound k-1 = 7)") {
		t.Errorf("liberation.encode line does not read xors/unit=7.000 against k-1 = 7 for k=8, p=11:\n%s", line)
	}
}

// statsLine returns the -stats line of the named span, or "".
func statsLine(out, span string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, span+" ") {
			return line
		}
	}
	return ""
}
