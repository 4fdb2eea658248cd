package shard

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/store"
)

// TestCodeMatrixRoundTrip drives the full shard path for every
// registered code over a spread of (k, p) shapes from the registry:
// streaming encode, clean decode, degraded decode with as many shards
// gone as the code has parities (two for the RAID-6 families, three for
// rs3), repair, then silent corruption, whose strip fails its strip sum
// and is erased for its stripe alone, whatever the family. Output must
// be byte-identical to the input at every step.
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
				for _, workers := range []int{0, 4} {
					t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
						opt := Options{Code: info.Name, Workers: workers}
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
							sh.K, sh.P, elem, dir, opt)
						if err != nil {
							t.Fatalf("EncodeOpts: %v", err)
						}
						if m.Version != FormatVersion || m.Code != info.Name || m.W != code.W() {
							t.Fatalf("manifest records version=%d code=%q w=%d, want %d %q %d",
								m.Version, m.Code, m.W, FormatVersion, info.Name, code.W())
						}
						manifest := filepath.Join(dir, ManifestName(m.FileName))

						decodeAndCompare(t, dir, m, content, opt) // clean path

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
						decodeAndCompare(t, dir, m, content, opt)
						if repaired, err := RepairOpts(manifest, opt); err != nil || len(repaired) != m.M {
							t.Fatalf("Repair after %d-shard loss: %v, %v", m.M, repaired, err)
						}

						// Silent corruption: flip a byte mid-shard. The strip it
						// lands in fails its sum in stream and is erased for its
						// stripe; repair rebuilds that strip and writes the shard.
						path := filepath.Join(dir, m.ShardName(0))
						b, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						b[len(b)/2] ^= 0x40
						if err := os.WriteFile(path, b, 0o644); err != nil {
							t.Fatal(err)
						}
						status := decodeAndCompare(t, dir, m, content, opt)
						if status[0].Valid {
							t.Error("corrupt shard reported valid")
						}
						if _, err := RepairOpts(manifest, opt); err != nil {
							t.Fatalf("Repair after corruption: %v", err)
						}
						if err := Verify(manifest, Options{}); err != nil {
							t.Fatalf("Verify after repair: %v", err)
						}
					})
				}
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
	decodeAndCompare(t, dir, m, want, Options{})

	manifest := filepath.Join(dir, ManifestName(m.FileName))
	if err := os.Remove(filepath.Join(dir, m.ShardName(2))); err != nil {
		t.Fatal(err)
	}
	decodeAndCompare(t, dir, m, want, Options{})
	if repaired, err := RepairOpts(manifest, Options{}); err != nil || len(repaired) != 1 {
		t.Fatalf("RepairOpts(v1): %v, %v", repaired, err)
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
			decodeAndCompare(t, dir, m, want, Options{})
			if _, err := RepairOpts(filepath.Join(dir, ManifestName(m.FileName)), Options{}); err != nil {
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

// TestManifestV5Fixture decodes the committed version 5 liberation set
// (written by testdata/gen_v5) byte-identically three ways: clean, with
// two shards lost, and with one strip flipped, into a writer that cannot
// rewind. The flipped strip is erased for its stripe alone. A repair
// then restores every shard to the committed bytes. A fresh encode of
// the same bytes must record the same checksums and strip sums, so the
// strip-sum definition cannot drift under existing sets.
func TestManifestV5Fixture(t *testing.T) {
	const fixture = "testdata/v5"
	want, err := os.ReadFile(filepath.Join(fixture, "blob.bin"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(filepath.Join(fixture, ManifestName("blob.bin")))
	if err != nil {
		t.Fatalf("LoadManifest(v5): %v", err)
	}
	if m.Version != 5 || m.Code != "liberation" || len(m.StripSums) != m.NumShards() {
		t.Fatalf("v5 manifest loaded as version=%d code=%q with %d strip sums",
			m.Version, m.Code, len(m.StripSums))
	}
	fresh, err := EncodeOpts(bytes.NewReader(want), int64(len(want)), "blob.bin", m.K, m.P, m.ElemSize,
		t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fresh.Checksums, fresh.StripSums) != fmt.Sprint(m.Checksums, m.StripSums) {
		t.Fatalf("a fresh encode records checksums %v and strip sums %x, the fixture %v and %x",
			fresh.Checksums, fresh.StripSums, m.Checksums, m.StripSums)
	}

	sb, _ := m.shardShape()
	for _, tc := range []struct {
		name        string
		lost        []string
		flip        string // shard with one flipped byte in stripe 1
		quarantined string
	}{
		{"clean", nil, "", "[]"},
		{"lost=d01,q", []string{"d01", "q"}, "", "[]"},
		{"flipped-strip", nil, "d02", "[2]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyFixture(t, fixture)
			for _, name := range tc.lost {
				if err := os.Remove(filepath.Join(dir, "blob.bin.shard."+name)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.flip != "" {
				path := filepath.Join(dir, "blob.bin.shard."+tc.flip)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[sb+7] ^= 0x80
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out bytes.Buffer
			rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), struct{ io.Writer }{&out}, Options{})
			if err != nil {
				t.Fatalf("DecodeReport: %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatal("decode differs from the committed file")
			}
			if rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != tc.quarantined {
				t.Errorf("%d attempts, quarantined %v; want 1, %s", rep.Attempts, rep.Quarantined, tc.quarantined)
			}
			if _, err := RepairOpts(filepath.Join(dir, ManifestName(m.FileName)), Options{}); err != nil {
				t.Fatalf("RepairOpts: %v", err)
			}
			checkShardsEqual(t, dir, m, readShards(t, fixture, m))
		})
	}
}

// TestChecksumsMatchStdlib pins the sums a v5 encode writes where crc's
// folding kernel runs. The v5 fixture's 160-byte strips are under the
// kernel's 256-byte minimum; here liberation k=6, p=7 with 88-byte
// elements makes 616-byte strips: 576 bytes through the kernel where the
// CPU has it (its first 256, one 256-byte fold and one 64-byte fold, so
// every fold constant) and a 40-byte tail through hash/crc32. Every
// whole-shard checksum and every running strip sum is recomputed from the
// written shard files with hash/crc32 alone.
func TestChecksumsMatchStdlib(t *testing.T) {
	const k, p, elem = 6, 7, 88
	data := make([]byte, 300*k*p*elem+1000) // 300 full stripes and part of one
	rand.New(rand.NewSource(5)).Read(data)
	dir := t.TempDir()
	m, err := EncodeOpts(bytes.NewReader(data), int64(len(data)), "obj.bin", k, p, elem, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := m.shardShape()
	if sb != 616 || m.Version != FormatVersion || m.Stripes != 301 {
		t.Fatalf("encoded %d-byte strips, version %d, %d stripes; want 616, %d, 301",
			sb, m.Version, m.Stripes, FormatVersion)
	}
	for i := 0; i < m.NumShards(); i++ {
		b, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		var sum uint32
		for s := 0; s < m.Stripes; s++ {
			sum = crc32.Update(sum, crc32.IEEETable, b[s*sb:(s+1)*sb])
			if got := m.stripSum(i, s); got != sum {
				t.Fatalf("shard %d stripe %d: strip sum %#08x, hash/crc32 %#08x", i, s, got, sum)
			}
		}
		if want := crc32.ChecksumIEEE(b); m.Checksums[i] != want {
			t.Errorf("shard %d: checksum %#08x, hash/crc32 %#08x", i, m.Checksums[i], want)
		}
	}
}

// TestManifestV5StripSumsValidation: a manifest comes from outside the
// program, so every way a version 5 manifest's strip sums can disagree
// with its shape or its checksums is an ErrManifest at load, never a
// panic and never a decode that trusts them.
func TestManifestV5StripSumsValidation(t *testing.T) {
	_, _, enc := encodeTestFile(t, 4*5*64*3+10, 4, 5, 64) // 4 stripes
	for _, tc := range []struct {
		name string
		edit func(m *Manifest)
	}{
		{"no strip sums", func(m *Manifest) { m.StripSums = nil }},
		{"sums for k+m-1 shards", func(m *Manifest) { m.StripSums = m.StripSums[:m.NumShards()-1] }},
		{"sums for k+m+1 shards", func(m *Manifest) { m.StripSums = append(m.StripSums, m.StripSums[0]) }},
		{"one byte short", func(m *Manifest) { m.StripSums[2] = m.StripSums[2][:4*m.Stripes-1] }},
		{"one stripe short", func(m *Manifest) { m.StripSums[2] = m.StripSums[2][:4*(m.Stripes-1)] }},
		{"one stripe long", func(m *Manifest) {
			m.StripSums[2] = append(m.StripSums[2], m.StripSums[2][len(m.StripSums[2])-4:]...)
		}},
		{"empty sums for one shard", func(m *Manifest) { m.StripSums[0] = []byte{} }},
		{"last sum differs from checksum", func(m *Manifest) { m.Checksums[3] ^= 1 }},
		{"last sum altered", func(m *Manifest) { m.StripSums[4][4*m.Stripes-1] ^= 1 }},
		{"negative stripes", func(m *Manifest) { m.Stripes = -1 }},
		// 4·stripes wraps to 0 in an int (1<<62 on 64-bit, 1<<30 on
		// 32-bit): the sums' length must not be compared through that
		// product.
		{"stripes overflowing the sum length", func(m *Manifest) {
			m.Stripes = 1 << (bits.UintSize - 2)
			for i := range m.StripSums {
				m.StripSums[i] = []byte{}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := *enc
			m.Checksums = append([]uint32(nil), enc.Checksums...)
			m.StripSums = make([][]byte, len(enc.StripSums))
			for i, sums := range enc.StripSums {
				m.StripSums[i] = append([]byte(nil), sums...)
			}
			tc.edit(&m)
			path := filepath.Join(t.TempDir(), ManifestName(m.FileName))
			if err := writeManifest(store.OS{}, &m, path); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadManifest(path); !errors.Is(err, ErrManifest) {
				t.Fatalf("LoadManifest = %v, want ErrManifest", err)
			}
		})
	}
	t.Run("strip sums not base64", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.json")
		body := `{"version":5,"code":"liberation","k":1,"p":3,"m":2,"w":3,"elem_size":8,` +
			`"file_name":"x","file_size":1,"stripes":1,"checksums":[0,0,0],"strip_sums":["!!!!","",""]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(path); !errors.Is(err, ErrManifest) {
			t.Fatalf("LoadManifest = %v, want ErrManifest", err)
		}
	})
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

	// Parameters the code rejects: a liberation p that is not an odd
	// prime (one bit-flip turns "p":5 into "p":1).
	badP := `{"version":2,"code":"liberation","k":3,"p":1,"w":1,"elem_size":32,` +
		`"file_name":"x","file_size":1,"stripes":1,"checksums":[0,0,0,0,0]}`
	if err := os.WriteFile(path, []byte(badP), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err = LoadManifest(path); err != nil {
		t.Fatalf("LoadManifest(p=1): %v", err)
	}
	if _, err := manifestCode(m, nil); !errors.Is(err, ErrManifest) || !errors.Is(err, core.ErrParams) {
		t.Fatalf("p=1 error = %v, want ErrManifest wrapping core.ErrParams", err)
	}
}
