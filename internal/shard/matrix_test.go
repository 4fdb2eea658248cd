package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
)

// TestCodeMatrixRoundTrip drives the full shard path for every
// registered code over a spread of (k, p) shapes from the registry:
// streaming encode, clean decode, degraded decode with as many shards
// gone as the code has parities (two for the RAID-6 families, three for
// rs3), repair, then silent corruption — which engages the correction rung for
// core.ColumnCorrector codes and the skip-rung → erasure fallback for
// the rest. Output must be byte-identical to the input at every step.
func TestCodeMatrixRoundTrip(t *testing.T) {
	for _, info := range codes.All() {
		shapes := info.TestShapes
		if len(shapes) > 2 {
			// The full parameter spread is covered by the codetest
			// conformance matrix; here two shapes per family exercise the
			// I/O path without multiplying the test's disk traffic.
			shapes = []codes.Shape{shapes[0], shapes[len(shapes)-1]}
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/k=%d,p=%d", info.Name, sh.K, sh.P), func(t *testing.T) {
				const elem = 32
				code, err := codes.New(info.Name, sh.K, sh.P)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				size := int64(sh.K*code.W()*elem*3 + 17) // 3 stripes + a partial tail
				content := make([]byte, size)
				rand.New(rand.NewSource(size)).Read(content)
				m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin",
					sh.K, sh.P, elem, dir, Options{Code: info.Name})
				if err != nil {
					t.Fatalf("EncodeOpts: %v", err)
				}
				if m.Version != FormatVersion || m.Code != info.Name || m.W != code.W() {
					t.Fatalf("manifest records version=%d code=%q w=%d, want %d %q %d",
						m.Version, m.Code, m.W, FormatVersion, info.Name, code.W())
				}
				manifest := filepath.Join(dir, ManifestName(m.FileName))

				decodeAndCompare(t, dir, m, content) // clean path

				// Degraded: the full parity budget gone at once — a data
				// shard plus the last parity (the hard erasure case for the
				// RAID-6 families), padded with more data shards up to M
				// losses so an m=3 family proves its triple-fault claim on
				// the real shard path.
				lost := []int{1, m.NumShards() - 1}
				for i := 2; len(lost) < m.M; i++ {
					lost = append(lost, i)
				}
				for _, i := range lost {
					if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
						t.Fatal(err)
					}
				}
				decodeAndCompare(t, dir, m, content)
				if repaired, err := Repair(manifest); err != nil || len(repaired) != m.M {
					t.Fatalf("Repair after %d-shard loss: %v, %v", m.M, repaired, err)
				}

				// Silent corruption: flip a byte mid-shard. The probe
				// quarantines the shard by CRC; ColumnCorrector codes heal
				// it in stream, the rest fall through to erasure decode.
				path := filepath.Join(dir, m.ShardName(0))
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x40
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				status := decodeAndCompare(t, dir, m, content)
				if status[0].Valid {
					t.Error("corrupt shard reported valid")
				}
				if _, err := Repair(manifest); err != nil {
					t.Fatalf("Repair after corruption: %v", err)
				}
				if err := Verify(manifest, Options{}); err != nil {
					t.Fatalf("Verify after repair: %v", err)
				}
				_, healer := code.(core.ColumnCorrector)
				t.Logf("%s: ok (column correction: %v)", info.Name, healer)
			})
		}
	}
}

// TestManifestV1Fixture loads the committed pre-registry shard set (the
// version 1 layout written before the manifest named its code): it must
// parse with the liberation defaults filled in, decode byte-identically,
// and survive a loss + repair cycle.
func TestManifestV1Fixture(t *testing.T) {
	const fixture = "testdata/v1"
	want, err := os.ReadFile(filepath.Join(fixture, "blob.bin"))
	if err != nil {
		t.Fatal(err)
	}

	m, err := LoadManifest(filepath.Join(fixture, ManifestName("blob.bin")))
	if err != nil {
		t.Fatalf("LoadManifest(v1): %v", err)
	}
	if m.Version != 1 || m.Code != "liberation" || m.W != m.P {
		t.Fatalf("v1 manifest loaded as version=%d code=%q w=%d p=%d",
			m.Version, m.Code, m.W, m.P)
	}

	// Repair mutates the shard set, so run the whole cycle on a copy.
	dir := copyFixture(t, fixture)
	decodeAndCompare(t, dir, m, want)

	manifest := filepath.Join(dir, ManifestName(m.FileName))
	if err := os.Remove(filepath.Join(dir, m.ShardName(2))); err != nil {
		t.Fatal(err)
	}
	decodeAndCompare(t, dir, m, want)
	if repaired, err := Repair(manifest); err != nil || len(repaired) != 1 {
		t.Fatalf("Repair(v1): %v, %v", repaired, err)
	}
	if err := Verify(manifest, Options{}); err != nil {
		t.Fatalf("Verify(v1) after repair: %v", err)
	}
}

// TestRSFixture decodes the committed Reed-Solomon P+Q shard set (written
// by testdata/gen_rs) byte-identically — clean, with a data shard and P
// gone, and with two data shards gone — then repairs the lost shards and
// requires them to match the committed ones, so a change to how the rs
// code computes or inverts its parities cannot silently orphan existing
// sets.
func TestRSFixture(t *testing.T) {
	const fixture = "testdata/rs"
	want, err := os.ReadFile(filepath.Join(fixture, "blob.bin"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(filepath.Join(fixture, ManifestName("blob.bin")))
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != "rs" || m.K != 3 || m.M != 2 {
		t.Fatalf("fixture manifest is code=%q k=%d m=%d, want rs 3 2", m.Code, m.K, m.M)
	}
	for _, lost := range [][]string{nil, {"d00", "p"}, {"d01", "d02"}} {
		t.Run(fmt.Sprintf("lost=%v", lost), func(t *testing.T) {
			dir := copyFixture(t, fixture)
			for _, name := range lost {
				if err := os.Remove(filepath.Join(dir, "blob.bin.shard."+name)); err != nil {
					t.Fatal(err)
				}
			}
			decodeAndCompare(t, dir, m, want)
			if _, err := Repair(filepath.Join(dir, ManifestName(m.FileName))); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m.NumShards(); i++ {
				got, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
				if err != nil {
					t.Fatal(err)
				}
				orig, err := os.ReadFile(filepath.Join(fixture, m.ShardName(i)))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, orig) {
					t.Errorf("repaired shard %s differs from the committed one", m.ShardName(i))
				}
			}
		})
	}
}

// copyFixture copies a committed fixture directory into a fresh temp dir,
// so tests that delete or repair shards never touch the checked-in set.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestManifestV2UnknownCode: a version 2 manifest naming a code nobody
// registered must fail the manifest gate — with the registered names in
// the message — before any shard I/O happens.
func TestManifestV2UnknownCode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	body := `{"version":2,"code":"tornado","k":3,"p":5,"w":5,"elem_size":32,` +
		`"file_name":"x","file_size":1,"stripes":1,"checksums":[0,0,0,0,0]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadManifest(path)
	if !errors.Is(err, ErrManifest) {
		t.Fatalf("unknown code error = %v, want ErrManifest", err)
	}
	if !strings.Contains(err.Error(), `"tornado"`) || !strings.Contains(err.Error(), "liberation") {
		t.Errorf("error does not name the code and the registered list: %v", err)
	}

	// A v2 manifest without the strip width is equally malformed.
	noW := `{"version":2,"code":"liberation","k":3,"p":5,"elem_size":32,` +
		`"file_name":"x","file_size":1,"stripes":1,"checksums":[0,0,0,0,0]}`
	if err := os.WriteFile(path, []byte(noW), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrManifest) {
		t.Fatalf("missing width error = %v, want ErrManifest", err)
	}

	// A v2 manifest whose width contradicts the named code must fail the
	// geometry cross-check even though the name resolves.
	badW := `{"version":2,"code":"liberation","k":3,"p":5,"w":4,"elem_size":32,` +
		`"file_name":"x","file_size":1,"stripes":1,"checksums":[0,0,0,0,0]}`
	if err := os.WriteFile(path, []byte(badW), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("LoadManifest(lying width): %v", err)
	}
	if _, err := manifestCode(m, nil); !errors.Is(err, ErrManifest) {
		t.Fatalf("geometry cross-check error = %v, want ErrManifest", err)
	}
}
