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

	// Parallel encode reports the pool span too.
	out = capture(t, func() error {
		return run("encode", []string{"-k", "4", "-elem", "64", "-out", dir, "-workers", "2", "-stats", blob})
	})
	if !strings.Contains(out, "pipeline.encode") {
		t.Errorf("parallel encode -stats missing pipeline span:\n%s", out)
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

// TestStatsPipelineUnits pins the pool span's denominator: pipeline.encode
// bills parity elements (stripes × M × W), so its xors/unit reads the same
// k-1 bound as the code's own encode span rather than XORs per stripe.
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
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "pipeline.encode ") {
			if !strings.Contains(line, "xors/unit=7.000") {
				t.Errorf("pipeline.encode line does not read xors/unit=7.000 for k=8, p=11:\n%s", line)
			}
			return
		}
	}
	t.Errorf("no pipeline.encode line in -stats output:\n%s", out)
}
