// Command gen_rs regenerates the committed Reed-Solomon P+Q shard fixture
// used by TestRSFixture: a small deterministic file encoded with the "rs"
// code (k=3, 32-byte elements). The fixture pins the on-disk parity bytes
// of P = XOR_j D_j and Q = XOR_j g^j D_j, so any change to how the rs code
// computes its parities shows up as a decode mismatch against shard sets
// written by earlier builds.
//
// The committed set has a version 4 manifest (whole-shard checksums
// only), and TestRSFixture keeps it as the pin of the version 1–4
// decode path. Re-running this command now writes a version 5 manifest
// with strip sums, which would move that pin to the version 5 path
// (testdata/v5 already pins it).
//
// Run from the repository root:
//
//	go run ./internal/shard/testdata/gen_rs
package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"

	"repro/internal/shard"
)

func main() {
	dir := filepath.Join("internal", "shard", "testdata", "rs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	// Deterministic payload: 1000 bytes, not a multiple of the 96-byte
	// stripe, so the fixture also pins the padding behavior.
	content := make([]byte, 1000)
	for i := range content {
		content[i] = byte((i*7 + 3) % 253)
	}
	if err := os.WriteFile(filepath.Join(dir, "blob.bin"), content, 0o644); err != nil {
		log.Fatal(err)
	}
	if _, err := shard.EncodeOpts(bytes.NewReader(content), int64(len(content)),
		"blob.bin", 3, 0, 32, dir, shard.Options{Code: "rs"}); err != nil {
		log.Fatal(err)
	}
}
