package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/codes"
	"repro/internal/obs"
	"repro/internal/store"
)

// ioLog wraps the OS store: it totals, by file name, the bytes every
// ReadAt returned, and logs reads and renames in call order.
type ioLog struct {
	store.Store
	mu   sync.Mutex
	read map[string]int64
	ops  []string // "read NAME" or "rename NAME"
}

func newIOLog() *ioLog { return &ioLog{Store: store.OS{}, read: map[string]int64{}} }

func (l *ioLog) Open(path string) (store.File, error) {
	return readAtStore{Store: l.Store, fn: l.readAt}.Open(path)
}

func (l *ioLog) readAt(path string, f store.File, p []byte, off int64) (int, error) {
	n, err := f.ReadAt(p, off)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.read[filepath.Base(path)] += int64(n)
	l.ops = append(l.ops, "read "+filepath.Base(path))
	return n, err
}

func (l *ioLog) Rename(oldPath, newPath string) error {
	l.mu.Lock()
	l.ops = append(l.ops, "rename "+filepath.Base(newPath))
	l.mu.Unlock()
	return l.Store.Rename(oldPath, newPath)
}

// renames returns the names renamed onto, in order, and fails the test
// if a read follows a rename: the attempt that commits reads nothing
// after its renames, so such a rename was made by an attempt that
// restarted.
func (l *ioLog) renames(t *testing.T) []string {
	t.Helper()
	var out []string
	for i, op := range l.ops {
		if name, ok := strings.CutPrefix(op, "rename "); ok {
			out = append(out, name)
			if j := slices.IndexFunc(l.ops[i:], func(op string) bool {
				return strings.HasPrefix(op, "read ")
			}); j >= 0 {
				t.Errorf("rename of %s precedes %q: committed by an attempt that restarted", name, l.ops[i+j])
			}
		}
	}
	return out
}

// readShards returns the bytes of every shard of m in dir.
func readShards(t *testing.T, dir string, m *Manifest) [][]byte {
	t.Helper()
	out := make([][]byte, m.NumShards())
	for i := range out {
		b, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// checkShardsEqual fails unless every shard of m in dir holds want's bytes.
func checkShardsEqual(t *testing.T, dir string, m *Manifest, want [][]byte) {
	t.Helper()
	for i, got := range readShards(t, dir, m) {
		if !bytes.Equal(got, want[i]) {
			t.Errorf("shard %d (%s) differs from its encoded bytes", i, m.ShardName(i))
		}
	}
}

// TestRepairReadsEachSurvivorOnce pins repair's bytes read per byte
// repaired for every registered code, over a shard set of four batches:
// with one data shard lost, or one parity shard, each survivor is read
// exactly once, (k+m−1)·shardSize bytes in all, and a repair of a
// healthy set reads each of the k+m shards once and renames nothing.
// The checksums the stream rolls verify the survivors; a separate
// checksum pass would double every count.
func TestRepairReadsEachSurvivorOnce(t *testing.T) {
	for _, name := range codes.Names() {
		t.Run(name, func(t *testing.T) {
			const k, elem = 3, 32
			code, err := codes.New(name, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			size := int64(k*code.W()*elem*6 + 17) // 7 stripes: 4 batches of 2
			content := make([]byte, size)
			rand.New(rand.NewSource(size)).Read(content)
			dir := t.TempDir()
			m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, 0, elem, dir, Options{Code: name})
			if err != nil {
				t.Fatal(err)
			}
			golden := readShards(t, dir, m)
			_, shardSize := m.shardShape()
			manifest := filepath.Join(dir, ManifestName(m.FileName))
			for _, tc := range []struct {
				name string
				lost int // -1: none
			}{{"healthy", -1}, {"lost-data", 1}, {"lost-parity", m.K}} {
				t.Run(tc.name, func(t *testing.T) {
					var want []int
					if tc.lost >= 0 {
						want = []int{tc.lost}
						if err := os.Remove(filepath.Join(dir, m.ShardName(tc.lost))); err != nil {
							t.Fatal(err)
						}
					}
					l := newIOLog()
					repaired, err := RepairOpts(manifest, Options{Store: l, BatchStripes: 2})
					if err != nil {
						t.Fatalf("RepairOpts: %v", err)
					}
					if fmt.Sprint(repaired) != fmt.Sprint(want) {
						t.Fatalf("repaired %v, want %v", repaired, want)
					}
					for i := 0; i < m.NumShards(); i++ {
						got, wantRead := l.read[m.ShardName(i)], shardSize
						if i == tc.lost {
							wantRead = 0
						}
						if got != wantRead {
							t.Errorf("read %d bytes of %s, want %d", got, m.ShardName(i), wantRead)
						}
					}
					if got := l.renames(t); len(got) != len(want) {
						t.Errorf("renamed %v, want one rename per repaired shard %v", got, want)
					}
					checkShardsEqual(t, dir, m, golden)
				})
			}
		})
	}
}

// TestDecodeReadsEachSurvivorOnce is the decode twin of
// TestRepairReadsEachSurvivorOnce, for every registered code over a
// shard set of four batches decoded into a plain io.Writer, which
// cannot rewind: healthy, one data shard lost, P lost, the last parity
// lost (a stripe that lost parity alone is not decoded: rdp would
// rebuild Q from the P it did not read), and one flipped byte in one
// strip of a survivor alongside m−1 lost
// shards, the last also in seven batches of one stripe and in two
// batches of four (which run in line). A decode reads only the first k
// usable shards in column order, each of them exactly once (shardSize
// bytes), and no other shard at all, except that in the flipped case
// the first standby reads exactly the one strip that stands in for the
// flipped one. The output is the original in one attempt, and the
// flipped strip is erased for its stripe alone: its shard is
// quarantined. A checksum probe before the stream would double every
// count, and a reader running further ahead than the stream would add
// to it.
func TestDecodeReadsEachSurvivorOnce(t *testing.T) {
	for _, name := range codes.Names() {
		t.Run(name, func(t *testing.T) {
			const k, elem = 3, 32
			code, err := codes.New(name, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			size := int64(k*code.W()*elem*6 + 17) // 7 stripes: 4 batches of 2
			content := make([]byte, size)
			rand.New(rand.NewSource(size)).Read(content)
			dir := t.TempDir()
			m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, 0, elem, dir, Options{Code: name})
			if err != nil {
				t.Fatal(err)
			}
			golden := readShards(t, dir, m)
			sb, shardSize := m.shardShape()
			manifest := filepath.Join(dir, ManifestName(m.FileName))
			// The flip case loses data shard 1 and then parities from the
			// last, m−1 shards in all; stripe 3 of data shard 0 is flipped.
			lostWithFlip := []int{1}
			for i := m.NumShards() - 1; len(lostWithFlip) < m.M-1; i-- {
				lostWithFlip = append(lostWithFlip, i)
			}
			for _, tc := range []struct {
				name  string
				lost  []int
				flip  int // shard with one flipped byte in stripe 3, -1: none
				batch int // Options.BatchStripes
			}{
				{"healthy", nil, -1, 2},
				{"lost-data", []int{1}, -1, 2},
				{"lost-parity", []int{m.K}, -1, 2},
				{"lost-last-parity", []int{m.NumShards() - 1}, -1, 2},
				{"flipped-strip", lostWithFlip, 0, 2},
				{"flipped-strip/batch=1", lostWithFlip, 0, 1},
				{"flipped-strip/batch=4", lostWithFlip, 0, 4},
			} {
				t.Run(tc.name, func(t *testing.T) {
					defer func() {
						for i, b := range golden {
							if err := os.WriteFile(filepath.Join(dir, m.ShardName(i)), b, 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}()
					for _, i := range tc.lost {
						if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
							t.Fatal(err)
						}
					}
					var wantQuarantined []int
					if tc.flip >= 0 {
						b := append([]byte(nil), golden[tc.flip]...)
						b[3*sb+sb/2] ^= 0x10
						if err := os.WriteFile(filepath.Join(dir, m.ShardName(tc.flip)), b, 0o644); err != nil {
							t.Fatal(err)
						}
						wantQuarantined = []int{tc.flip}
					}
					l := newIOLog()
					var out bytes.Buffer
					rep, err := DecodeReport(manifest, struct{ io.Writer }{&out}, Options{Store: l, BatchStripes: tc.batch})
					if err != nil {
						t.Fatalf("DecodeReport: %v", err)
					}
					if !bytes.Equal(out.Bytes(), content) {
						t.Fatal("decode output differs from the original")
					}
					if rep.Attempts != 1 || fmt.Sprint(rep.Quarantined) != fmt.Sprint(wantQuarantined) {
						t.Errorf("%d attempts, quarantined %v; want 1, %v",
							rep.Attempts, rep.Quarantined, wantQuarantined)
					}
					usable := 0
					for i := 0; i < m.NumShards(); i++ {
						var want int64
						switch {
						case slices.Contains(tc.lost, i):
						case usable < m.K:
							want = shardSize
							usable++
						case usable == m.K && tc.flip >= 0:
							want = int64(sb) // the first standby
							usable++
						}
						if got := l.read[m.ShardName(i)]; got != want {
							t.Errorf("read %d bytes of %s, want %d", got, m.ShardName(i), want)
						}
					}
				})
			}
		})
	}
}

// TestFailingStripsEveryCode pins the one integrity rule on version 5
// sets of every registered code: a strip is usable iff it matches its
// strip sum, whichever operation reads it. One case loses a data shard
// and gives m other shards one failing strip each, in different
// stripes; the other gives m+1 shards one failing strip each with none
// lost. Every stripe then has at most m strips unusable, so Verify
// reports the set degraded and names each corrupt shard's stripe, a
// decode into a writer that cannot rewind returns the original in one
// attempt, and repair rebuilds every one of those shards byte for byte,
// after which Verify is clean.
func TestFailingStripsEveryCode(t *testing.T) {
	for _, name := range codes.Names() {
		t.Run(name, func(t *testing.T) {
			const k, elem = 3, 32
			code, err := codes.New(name, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			size := int64(k*code.W()*elem*6 + 17) // 7 stripes
			content := make([]byte, size)
			rand.New(rand.NewSource(size)).Read(content)
			dir := t.TempDir()
			m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, 0, elem, dir, Options{Code: name})
			if err != nil {
				t.Fatal(err)
			}
			golden := readShards(t, dir, m)
			manifest := filepath.Join(dir, ManifestName(m.FileName))
			survivors := []int{0} // every shard but data shard 1
			for i := 2; i < m.NumShards(); i++ {
				survivors = append(survivors, i)
			}
			for _, tc := range []struct {
				name string
				lost int // -1: none
				bad  []int
			}{
				{"one-lost+m-bad-strips", 1, survivors[:m.M]},
				{"m+1-bad-strips", -1, survivors[:m.M+1]},
			} {
				t.Run(tc.name, func(t *testing.T) {
					defer func() {
						for i, b := range golden {
							if err := os.WriteFile(filepath.Join(dir, m.ShardName(i)), b, 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}()
					want := slices.Clone(tc.bad)
					if tc.lost >= 0 {
						if err := os.Remove(filepath.Join(dir, m.ShardName(tc.lost))); err != nil {
							t.Fatal(err)
						}
						want = append(want, tc.lost)
						slices.Sort(want)
					}
					for j, i := range tc.bad {
						flipStrip(t, dir, m, i, j+1) // stripes 1, 2, …: never the same
					}

					var deg *DegradedError
					if err := Verify(manifest, Options{}); !errors.As(err, &deg) {
						t.Errorf("Verify = %v, want *DegradedError", err)
					} else {
						if fmt.Sprint(deg.Unusable()) != fmt.Sprint(want) {
							t.Errorf("Verify names %v, want %v", deg.Unusable(), want)
						}
						for j, i := range tc.bad {
							st := deg.Status[i]
							if st.State != StateCorrupt || st.Err == nil || !strings.Contains(st.Err.Error(), fmt.Sprintf("stripes [%d]", j+1)) {
								t.Errorf("shard %d: %v, %v; want corrupt naming stripe %d", i, st.State, st.Err, j+1)
							}
						}
					}

					var out bytes.Buffer
					rep, err := DecodeReport(manifest, struct{ io.Writer }{&out}, Options{BatchStripes: 2})
					if err != nil {
						t.Fatalf("DecodeReport: %v", err)
					}
					if !bytes.Equal(out.Bytes(), content) || rep.Attempts != 1 {
						t.Errorf("decode: output equal %v, %d attempts; want the original in 1",
							bytes.Equal(out.Bytes(), content), rep.Attempts)
					}

					repaired, err := RepairOpts(manifest, Options{BatchStripes: 2})
					if err != nil {
						t.Fatalf("RepairOpts: %v", err)
					}
					if fmt.Sprint(repaired) != fmt.Sprint(want) {
						t.Errorf("repaired %v, want %v", repaired, want)
					}
					checkShardsEqual(t, dir, m, golden)
					if err := Verify(manifest, Options{}); err != nil {
						t.Errorf("Verify after repair: %v", err)
					}
				})
			}
		})
	}
}

// TestRepairFastPassFallback pins repair when a survivor has a strip
// that fails its sum, on its own or beside a lost shard. The first
// attempt erases that strip for its stripe, so any shard it rebuilds
// comes out right, and restarts with the survivor among the targets; the
// second streams it, rebuilds the failing strip and writes it whole.
// Only that attempt renames, once per repaired shard, every survivor is
// read exactly twice (the flipped one included), the flipped shard is
// quarantined once, and Verify is clean afterwards.
func TestRepairFastPassFallback(t *testing.T) {
	const k, elem = 4, 64
	size := int64(k*5*elem*20 + 33) // liberation p=5: 21 stripes
	content := make([]byte, size)
	rand.New(rand.NewSource(19)).Read(content)
	for _, tc := range []struct {
		name string
		lost int // -1: none
		flip int // the survivor flipped on disk
		off  func(m *Manifest) int64
		want []int
	}{
		{"lost-data+flipped-survivor", 1, 3, func(*Manifest) int64 { return 7 }, []int{1, 3}},
		{"one-stripe-flip", -1, 2, func(m *Manifest) int64 {
			sb, _ := m.shardShape()
			return int64(5*sb + 100) // inside stripe 5
		}, []int{2}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, 5, elem, dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				golden := readShards(t, dir, m)
				if tc.lost >= 0 {
					if err := os.Remove(filepath.Join(dir, m.ShardName(tc.lost))); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join(dir, m.ShardName(tc.flip))
				b := append([]byte(nil), golden[tc.flip]...)
				b[tc.off(m)] ^= 0x5a
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}

				manifest := filepath.Join(dir, ManifestName(m.FileName))
				l := newIOLog()
				reg := obs.NewRegistry()
				repaired, err := RepairOpts(manifest, Options{Store: l, Registry: reg,
					Workers: workers, BatchStripes: 4})
				if err != nil {
					t.Fatalf("RepairOpts: %v", err)
				}
				if fmt.Sprint(repaired) != fmt.Sprint(tc.want) {
					t.Fatalf("repaired %v, want %v", repaired, tc.want)
				}
				if got := reg.Snapshot().Counters["shard.quarantine.total"]; got != 1 {
					t.Errorf("shard.quarantine.total = %d, want 1", got)
				}
				checkShardsEqual(t, dir, m, golden)
				if err := Verify(manifest, Options{}); err != nil {
					t.Fatalf("Verify after repair: %v", err)
				}
				if got := l.renames(t); len(got) != len(tc.want) {
					t.Errorf("renamed %v, want one rename per repaired shard %v", got, tc.want)
				}
				_, shardSize := m.shardShape()
				for i := 0; i < m.NumShards(); i++ {
					reads := int64(2)
					if i == tc.lost {
						reads = 0
					}
					if got := l.read[m.ShardName(i)]; got != reads*shardSize {
						t.Errorf("read %d bytes of %s, want %d·%d", got, m.ShardName(i), reads, shardSize)
					}
				}
			})
		}
	}
}
