// Command gen_v5 regenerates the committed version 5 shard fixture used
// by TestManifestV5Fixture: a small deterministic file encoded with the
// liberation code (k=3, p=5, 32-byte elements), whose manifest records
// the running CRC-32 of every shard at the end of every stripe
// ("strip_sums", one base64 string of big-endian uint32s per shard).
//
// Run from the repository root:
//
//	go run ./internal/shard/testdata/gen_v5
package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"

	"repro/internal/shard"
)

func main() {
	dir := filepath.Join("internal", "shard", "testdata", "v5")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	// Deterministic payload: 1000 bytes, not a multiple of the 480-byte
	// stripe, so the fixture also pins the padding behavior.
	content := make([]byte, 1000)
	for i := range content {
		content[i] = byte((i*13 + 5) % 251)
	}
	if err := os.WriteFile(filepath.Join(dir, "blob.bin"), content, 0o644); err != nil {
		log.Fatal(err)
	}
	m, err := shard.EncodeOpts(bytes.NewReader(content), int64(len(content)),
		"blob.bin", 3, 5, 32, dir, shard.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if m.Version != 5 {
		log.Fatalf("encoder wrote manifest version %d, want 5", m.Version)
	}
}
