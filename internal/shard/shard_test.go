package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
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

// TestRoundTripSizes exercises padding edge cases: empty file,
// sub-element, sub-stripe, exact multiple, and multi-stripe. A clean
// decode reads the data shards, which it reports Valid, and leaves the
// parity shards as standbys: present and StateOK but not Valid, as it
// never read them. Verify, which reads every shard, finds the set clean.
func TestRoundTripSizes(t *testing.T) {
	for _, size := range []int64{0, 1, 100, 4 * 5 * 64, 4*5*64*3 + 17} {
		dir, content, m := encodeTestFile(t, size, 4, 0, 64)
		status := decodeAndCompare(t, dir, m, content, Options{})
		for _, st := range status {
			if read := st.Index < m.K; !st.Present || st.State != StateOK || st.Valid != read {
				t.Errorf("size=%d: shard %d present %v, %v, valid %v; want present, ok, valid %v",
					size, st.Index, st.Present, st.State, st.Valid, read)
			}
		}
		if err := Verify(filepath.Join(dir, ManifestName(m.FileName)), Options{}); err != nil {
			t.Errorf("size=%d: Verify = %v", size, err)
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
	// After repair every strip of every shard matches its sum, and the
	// set decodes.
	if err := Verify(manifest, Options{}); err != nil {
		t.Errorf("Verify after repair = %v", err)
	}
	decodeAndCompare(t, dir, m, content, Options{})
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

// TestShardNames pins the names of data shards at indices 0 to 254 (dNN,
// at least two digits), the P and Q shards, and rs3's third parity
// (rNN, numbered on from the data shards).
func TestShardNames(t *testing.T) {
	for _, tc := range []struct {
		k, i int
		want string
	}{
		{3, 0, "x.shard.d00"}, {3, 3, "x.shard.p"}, {3, 4, "x.shard.q"},
		{255, 9, "x.shard.d09"}, {255, 10, "x.shard.d10"}, {255, 99, "x.shard.d99"},
		{255, 100, "x.shard.d100"}, {255, 254, "x.shard.d254"},
		{3, 5, "x.shard.r03"}, {6, 8, "x.shard.r06"}, {8, 10, "x.shard.r08"}, {98, 100, "x.shard.r98"},
		{100, 102, "x.shard.r100"},
	} {
		m := &Manifest{K: tc.k, FileName: "x"}
		if got := m.ShardName(tc.i); got != tc.want {
			t.Errorf("k=%d: ShardName(%d) = %q, want %q", tc.k, tc.i, got, tc.want)
		}
	}
}

// TestOneCodePerShape: two encodes and two degraded decodes of one shape
// (liberation, k=4, p=5) under one registry resolve one core.Code, which
// manifestCode returns again, instead of building (and compiling the
// plans of) a code per operation.
func TestOneCodePerShape(t *testing.T) {
	reg := obs.NewRegistry() // a cache key no other test uses
	dir := t.TempDir()
	content := make([]byte, 5000)
	rand.New(rand.NewSource(31)).Read(content)
	var m *Manifest
	for range 2 {
		var err error
		if m, err = EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin", 4, 5, 64, dir,
			Options{Registry: reg}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 2} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		decodeAndCompare(t, dir, m, content, Options{Registry: reg})
	}
	var built []core.Code
	codeCacheMu.Lock()
	for key, code := range codeCache {
		if key.reg == reg {
			built = append(built, code)
		}
	}
	codeCacheMu.Unlock()
	code, err := manifestCode(m, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 1 || built[0] != code {
		t.Errorf("%d codes built for the shape, manifestCode's among them %v; want one, the same",
			len(built), slices.Contains(built, code))
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
