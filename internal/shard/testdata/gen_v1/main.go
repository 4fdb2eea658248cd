// Command gen_v1 regenerates the committed version 1 shard fixture used
// by TestManifestV1Fixture: a small deterministic file encoded with the
// liberation code (k=3, p=5, 32-byte elements), whose manifest is then
// rewritten to the pre-registry version 1 layout — no "w", "m" or
// "strip_sums" field, and the code named only by the historical constant
// "liberation".
//
// Run from the repository root:
//
//	go run ./internal/shard/testdata/gen_v1
package main

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"path/filepath"

	"repro/internal/shard"
)

func main() {
	dir := filepath.Join("internal", "shard", "testdata", "v1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	// Deterministic payload: 1000 bytes, not a multiple of the 480-byte
	// stripe, so the fixture also pins the padding behavior.
	content := make([]byte, 1000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	if err := os.WriteFile(filepath.Join(dir, "blob.bin"), content, 0o644); err != nil {
		log.Fatal(err)
	}
	if _, err := shard.EncodeOpts(bytes.NewReader(content), int64(len(content)),
		"blob.bin", 3, 5, 32, dir, shard.Options{}); err != nil {
		log.Fatal(err)
	}

	// Downgrade the manifest to the version 1 schema.
	mpath := filepath.Join(dir, shard.ManifestName("blob.bin"))
	raw, err := os.ReadFile(mpath)
	if err != nil {
		log.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		log.Fatal(err)
	}
	m["version"] = 1
	delete(m, "w")
	delete(m, "m")
	delete(m, "strip_sums")
	out, err := json.Marshal(m)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(mpath, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
