package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

func encodeTestFile(t *testing.T, size int64, k, p, elem int) (dir string, content []byte, m *Manifest) {
	t.Helper()
	dir = t.TempDir()
	content = make([]byte, size)
	rand.New(rand.NewSource(size + int64(k))).Read(content)
	m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, p, elem, dir, Options{})
	if err != nil {
		t.Fatalf("EncodeOpts: %v", err)
	}
	return dir, content, m
}

// asVersion4 rewrites the manifest of the set m that was just encoded
// into dir as version 4: the same fields without the strip sums, which
// is exactly the version 4 format. Its probe then reads every shard and
// rolls the strip sums that version 5 records, and a shard erased whole
// is checked against its checksum at the end of the stream.
func asVersion4(t *testing.T, dir string, m *Manifest) {
	t.Helper()
	v4 := *m
	v4.Version, v4.StripSums = 4, nil
	if err := writeManifest(store.OS{}, &v4, filepath.Join(dir, ManifestName(m.FileName))); err != nil {
		t.Fatal(err)
	}
}

func decodeAndCompare(t *testing.T, dir string, m *Manifest, want []byte, opt Options) []ShardStatus {
	t.Helper()
	var out bytes.Buffer
	rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, opt)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("decoded %d bytes, mismatch with original %d bytes", out.Len(), len(want))
	}
	return rep.Status
}

func TestRoundTripSizes(t *testing.T) {
	// Exercise padding edge cases: empty file, sub-element, sub-stripe,
	// exact multiple, and multi-stripe.
	for _, size := range []int64{0, 1, 100, 4 * 5 * 64, 4*5*64*3 + 17} {
		dir, content, m := encodeTestFile(t, size, 4, 0, 64)
		status := decodeAndCompare(t, dir, m, content, Options{})
		for _, st := range status {
			if !st.Present || !st.Valid {
				t.Errorf("size=%d: shard %d unhealthy on clean decode", size, st.Index)
			}
		}
	}
}

func TestRecoverFromMissingShards(t *testing.T) {
	dir, content, m := encodeTestFile(t, 10000, 5, 0, 128)
	// Remove one data shard and the Q shard.
	for _, i := range []int{2, m.K + 1} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
	status := decodeAndCompare(t, dir, m, content, Options{})
	if status[2].Present || status[m.K+1].Present {
		t.Error("missing shards reported as present")
	}
}

func TestRecoverFromCorruptShards(t *testing.T) {
	dir, content, m := encodeTestFile(t, 5000, 4, 5, 64)
	// Corrupt two shards (checksums catch it; treated as erasures).
	for _, i := range []int{0, 4} {
		path := filepath.Join(dir, m.ShardName(i))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	status := decodeAndCompare(t, dir, m, content, Options{})
	if status[0].Valid || status[4].Valid {
		t.Error("corrupt shards reported valid")
	}
}

func TestTooManyLosses(t *testing.T) {
	dir, _, m := encodeTestFile(t, 3000, 4, 0, 64)
	for _, i := range []int{0, 1, 2} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if _, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, Options{}); err == nil {
		t.Error("decode with 3 missing shards succeeded")
	}
}

func TestRepair(t *testing.T) {
	dir, content, m := encodeTestFile(t, 9999, 6, 7, 32)
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	if err := os.Remove(filepath.Join(dir, m.ShardName(3))); err != nil {
		t.Fatal(err)
	}
	// Corrupt P as well.
	pPath := filepath.Join(dir, m.ShardName(m.K))
	b, _ := os.ReadFile(pPath)
	b[0] ^= 1
	if err := os.WriteFile(pPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := RepairOpts(manifest, Options{})
	if err != nil {
		t.Fatalf("RepairOpts: %v", err)
	}
	if len(repaired) != 2 {
		t.Fatalf("repaired %v, want 2 shards", repaired)
	}
	// After repair, everything must be healthy and decodable.
	status := decodeAndCompare(t, dir, m, content, Options{})
	for _, st := range status {
		if !st.Valid {
			t.Errorf("shard %d still invalid after repair", st.Index)
		}
	}
	// Repairing a healthy set is a no-op.
	repaired, err = RepairOpts(manifest, Options{})
	if err != nil || repaired != nil {
		t.Errorf("no-op repair gave %v, %v", repaired, err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"code":"liberation"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("accepted wrong version")
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"code":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("accepted wrong code")
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("accepted missing manifest")
	}
}

// TestManifestStripeCount: a manifest whose stripe count is not the one
// encode derives from its file size is an ErrManifest, whatever its
// version. One flipped bit in a manifest read can do this, by renaming
// the "file_size" key (the size then loads as 0) or by moving the size's
// leading digit.
func TestManifestStripeCount(t *testing.T) {
	dir, _, m := encodeTestFile(t, 4*5*64*3+10, 4, 5, 64) // 4 stripes
	path := filepath.Join(dir, ManifestName(m.FileName))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fmt.Sprintf(`"file_size":%d`, m.FileSize)
	stripeBytes := int64(m.K * m.W * m.ElemSize)
	for _, tc := range []struct{ name, from, to string }{
		{"file_size key renamed", `"file_size":`, `"file_rize":`},
		{"one stripe short", size, fmt.Sprintf(`"file_size":%d`, m.FileSize-stripeBytes)},
		{"one stripe long", size, fmt.Sprintf(`"file_size":%d`, m.FileSize+stripeBytes)},
		{"negative size", size, fmt.Sprintf(`"file_size":%d`, -m.FileSize)},
		{"zero element size", `"elem_size":64`, `"elem_size":0`},
		{"stripes renamed", `"stripes":`, `"strides":`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Contains(good, []byte(tc.from)) {
				t.Fatalf("manifest lacks %s", tc.from)
			}
			for _, v4 := range []bool{false, true} {
				if v4 {
					asVersion4(t, dir, m)
				} else if err := writeManifest(store.OS{}, m, path); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, bytes.Replace(b, []byte(tc.from), []byte(tc.to), 1), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := LoadManifest(path); !errors.Is(err, ErrManifest) {
					t.Fatalf("v4=%v: LoadManifest = %v, want ErrManifest", v4, err)
				}
			}
		})
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err != nil {
		t.Fatalf("LoadManifest(encoded) = %v", err)
	}
}

// TestEncodeRejectsBadElemSize checks that an element size below 1 is
// a parameter error returned before any shard file is created, not a
// divide by zero or a makeslice panic.
func TestEncodeRejectsBadElemSize(t *testing.T) {
	for _, elem := range []int{0, -1} {
		dir := t.TempDir()
		_, err := EncodeOpts(bytes.NewReader(make([]byte, 100)), 100, "blob.bin", 4, 0, elem, dir, Options{})
		if !errors.Is(err, core.ErrParams) {
			t.Errorf("elem %d: err = %v, want core.ErrParams", elem, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("elem %d: encode left %d files behind", elem, len(left))
		}
	}
}

func TestShardNames(t *testing.T) {
	m := &Manifest{K: 3, FileName: "x"}
	if m.ShardName(0) != "x.shard.d00" || m.ShardName(3) != "x.shard.p" || m.ShardName(4) != "x.shard.q" {
		t.Errorf("shard names: %s %s %s", m.ShardName(0), m.ShardName(3), m.ShardName(4))
	}
}

func TestEncodeParallelMatchesSequential(t *testing.T) {
	content := make([]byte, 123456)
	rand.New(rand.NewSource(5)).Read(content)
	dirSeq := t.TempDir()
	dirPar := t.TempDir()
	mSeq, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "f.bin", 5, 7, 64, dirSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mPar, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "f.bin", 5, 7, 64, dirPar,
		Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Shard files and checksums must be byte-identical.
	for i := 0; i < mSeq.K+2; i++ {
		if mSeq.Checksums[i] != mPar.Checksums[i] {
			t.Fatalf("shard %d checksum differs", i)
		}
		a, err := os.ReadFile(filepath.Join(dirSeq, mSeq.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirPar, mPar.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d contents differ", i)
		}
	}
	// And the parallel set decodes.
	var out bytes.Buffer
	if _, err := DecodeReport(filepath.Join(dirPar, ManifestName("f.bin")), &out, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("parallel-encoded set decodes wrong")
	}
}
