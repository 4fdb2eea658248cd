package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/raidsim"
	"repro/internal/shard"
	"repro/internal/store"
)

// sizes are the workload dimensions. The benchmark runs benchSizes; the
// smoke test runs smaller ones through the same code.
type sizes struct {
	big     int // bytes of a -64m object
	small   int // bytes of a small-mix object
	names   int // small-mix object names
	rs3     int // bytes of an rs3-mix object
	elem    int // element size of every workload
	stripes int // stripes of the array-zipf array
}

var benchSizes = sizes{big: 64 << 20, small: 256 << 10, names: 64, rs3: 1 << 20, elem: 4 << 10, stripes: 512}

// workload is one benchmark workload: its name, its op classes, and how
// to set it up. BENCHMARK.json and README.md say why each is here.
type workload struct {
	name    string
	classes []string // op classes; opResult.class indexes this
	setup   func(e *env) (instance, error)
}

// instance is a workload after set-up, ready to run ops.
type instance interface {
	// op runs one op. Only the call into the program is timed; input
	// preparation and output checks around it are not.
	op() opResult
	close()
}

// checker is implemented by instances with end-of-run checks, which run
// untimed after the last op.
type checker interface {
	check() error
}

type opResult struct {
	class int
	bytes int64 // user bytes: ingested, returned, restored or written
	dur   int64 // nanoseconds
	err   error
}

var errMismatch = errors.New("output differs from the reference")

var workloads = []workload{
	{
		name:    "encode-64m",
		classes: []string{"write"},
		setup:   setupEncode,
	},
	{
		name:    "read-2lost-64m",
		classes: []string{"read"},
		setup:   setupRead2Lost,
	},
	{
		name:    "repair-64m",
		classes: []string{"repair"},
		setup:   setupRepair,
	},
	{
		name:    "small-mix-256k",
		classes: []string{"write", "read"},
		setup:   setupSmallMix,
	},
	{
		name:    "rs3-mix-1m",
		classes: []string{"write", "read"},
		setup:   setupRS3Mix,
	},
	{
		name:    "array-zipf",
		classes: []string{"write", "read"},
		setup:   setupArray,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// objDir is the store directory every shard workload writes into.
const objDir = "objects"

func manifestPath(name string) string { return filepath.Join(objDir, shard.ManifestName(name)) }

// shardBase is the part every shard workload shares: its store, its
// off-heap inputs, and the options each op passes to the program.
type shardBase struct {
	e        *env
	st       *MemStore
	fixtures [][]byte
	rng      *rand.Rand
}

func newShardBase(e *env) *shardBase {
	return &shardBase{e: e, st: NewMemStore(), rng: rand.New(rand.NewSource(e.seed))}
}

// opts returns the options of one op: the raidcli defaults (one worker)
// over the bench's store, timed and instrumented in the traced phase.
func (b *shardBase) opts() shard.Options {
	var st store.Store = b.st
	if b.e.wrap != nil {
		st = b.e.wrap(st)
	}
	o := shard.Options{Store: st, Workers: 1}
	if t := b.e.tr; t != nil {
		o.Store = tracedStore{st, t}
		o.Registry = b.e.reg
	}
	return o
}

// input returns n off-heap bytes filled from the run's seed and key.
func (b *shardBase) input(n int, key uint64) ([]byte, error) {
	buf, err := mapBytes(n)
	if err != nil {
		return nil, err
	}
	b.fixtures = append(b.fixtures, buf)
	fill(buf, mix(uint64(b.e.seed), key))
	return buf, nil
}

// preEncode stores an object untimed, as set-up, and checks its
// checksums against the reference.
func (b *shardBase) preEncode(name, code string, k, p int, data []byte, want []uint32) (*shard.Manifest, error) {
	m, err := shard.EncodeOpts(bytes.NewReader(data), int64(len(data)), name, k, p, b.e.sz.elem,
		objDir, shard.Options{Store: b.st, Workers: 1, Code: code})
	if err != nil {
		return nil, fmt.Errorf("pre-encoding %s: %w", name, err)
	}
	if want != nil && !slices.Equal(m.Checksums, want) {
		return nil, fmt.Errorf("pre-encoding %s: checksums %v, reference %v", name, m.Checksums, want)
	}
	return m, nil
}

func (b *shardBase) remove(m *shard.Manifest, shards ...int) error {
	for _, i := range shards {
		if err := b.st.Remove(filepath.Join(objDir, m.ShardName(i))); err != nil {
			return err
		}
	}
	return nil
}

// encode is one timed shard encode checked against its reference
// checksums.
func (b *shardBase) encode(class int, name, code string, k, p int, data []byte, want []uint32) opResult {
	opt := b.opts()
	opt.Code = code
	t0 := b.e.begin()
	m, err := shard.EncodeOpts(bytes.NewReader(data), int64(len(data)), name, k, p, b.e.sz.elem, objDir, opt)
	d := b.e.end(t0, "encode", int64(len(data)))
	if err == nil && !slices.Equal(m.Checksums, want) {
		err = fmt.Errorf("encode %s: %w", name, errMismatch)
	}
	return opResult{class: class, bytes: int64(len(data)), dur: d, err: err}
}

// decode is one timed shard decode streamed into a writer that compares
// every byte with the object's input.
func (b *shardBase) decode(class int, name string, want []byte) opResult {
	cw := &compareWriter{want: want}
	opt := b.opts()
	t0 := b.e.begin()
	_, err := shard.DecodeReport(manifestPath(name), cw, opt)
	d := b.e.end(t0, "decode", int64(len(want)))
	if err == nil && !cw.ok() {
		err = fmt.Errorf("decode %s: %w", name, errMismatch)
	}
	return opResult{class: class, bytes: int64(len(want)), dur: d, err: err}
}

func (b *shardBase) close() {
	b.st.Close()
	for _, f := range b.fixtures {
		unmap(f)
	}
	b.fixtures = nil
}

// encode-64m: liberation k=8 p=11, two object names alternating.
type encodeBench struct {
	*shardBase
	data []byte
	want []uint32
	n    int
}

func setupEncode(e *env) (instance, error) {
	w := &encodeBench{shardBase: newShardBase(e)}
	var err error
	if w.data, err = w.input(e.sz.big, 0); err != nil {
		return nil, err
	}
	if w.want, err = referenceChecksums("liberation", 8, 11, e.sz.elem, w.data); err != nil {
		return nil, err
	}
	for _, name := range []string{"obj0", "obj1"} {
		if _, err := w.preEncode(name, "liberation", 8, 11, w.data, w.want); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *encodeBench) op() opResult {
	w.n++
	return w.encode(0, fmt.Sprintf("obj%d", w.n%2), "liberation", 8, 11, w.data, w.want)
}

// read-2lost-64m: decode with d00 and d02 missing, the gate's worst pair.
type read2LostBench struct {
	*shardBase
	data []byte
}

func setupRead2Lost(e *env) (instance, error) {
	w := &read2LostBench{shardBase: newShardBase(e)}
	var err error
	if w.data, err = w.input(e.sz.big, 0); err != nil {
		return nil, err
	}
	m, err := w.preEncode("obj", "liberation", 8, 11, w.data, nil)
	if err != nil {
		return nil, err
	}
	return w, w.remove(m, 0, 2)
}

func (w *read2LostBench) op() opResult { return w.decode(0, "obj", w.data) }

// repair-64m: an untimed removal of one seeded data shard, then a timed
// repair, then an untimed comparison of the restored shard.
type repairBench struct {
	*shardBase
	m        *shard.Manifest
	pristine [][]byte // the data shards as first stored
}

func setupRepair(e *env) (instance, error) {
	w := &repairBench{shardBase: newShardBase(e)}
	data, err := w.input(e.sz.big, 0)
	if err != nil {
		return nil, err
	}
	want, err := referenceChecksums("liberation", 8, 11, e.sz.elem, data)
	if err != nil {
		return nil, err
	}
	if w.m, err = w.preEncode("obj", "liberation", 8, 11, data, want); err != nil {
		return nil, err
	}
	shardSize := w.m.Stripes * w.m.W * w.m.ElemSize
	for i := 0; i < w.m.K; i++ {
		b, err := mapBytes(shardSize)
		if err != nil {
			return nil, err
		}
		w.fixtures = append(w.fixtures, b)
		f, err := w.st.Open(filepath.Join(objDir, w.m.ShardName(i)))
		if err != nil {
			return nil, err
		}
		_, err = f.ReadAt(b, 0)
		f.Close()
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(b) != want[i] {
			return nil, fmt.Errorf("stored shard %d: %w", i, errMismatch)
		}
		w.pristine = append(w.pristine, b)
	}
	return w, nil
}

func (w *repairBench) op() opResult {
	lost := w.rng.Intn(w.m.K)
	path := filepath.Join(objDir, w.m.ShardName(lost))
	if err := w.st.Remove(path); err != nil {
		return opResult{err: err}
	}
	restored := int64(len(w.pristine[lost]))
	opt := w.opts()
	t0 := w.e.begin()
	got, err := shard.RepairOpts(manifestPath("obj"), opt)
	d := w.e.end(t0, "repair", restored)
	if err == nil && (!slices.Equal(got, []int{lost}) || !w.st.equal(path, w.pristine[lost])) {
		err = fmt.Errorf("repair of shard %d (repaired %v): %w", lost, got, errMismatch)
	}
	return opResult{bytes: restored, dur: d, err: err}
}

// small-mix-256k: a seeded 50/50 split between encoding an object (k=4,
// auto p) over rotating names and a clean decode of a random one.
type smallMixBench struct {
	*shardBase
	data [][]byte
	want [][]uint32
	next int
}

func setupSmallMix(e *env) (instance, error) {
	w := &smallMixBench{shardBase: newShardBase(e)}
	all, err := w.input(e.sz.names*e.sz.small, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < e.sz.names; i++ {
		data := all[i*e.sz.small : (i+1)*e.sz.small]
		want, err := referenceChecksums("liberation", 4, 0, e.sz.elem, data)
		if err != nil {
			return nil, err
		}
		if _, err := w.preEncode(smallName(i), "liberation", 4, 0, data, want); err != nil {
			return nil, err
		}
		w.data = append(w.data, data)
		w.want = append(w.want, want)
	}
	return w, nil
}

func smallName(i int) string { return fmt.Sprintf("small%02d", i) }

func (w *smallMixBench) op() opResult {
	if w.rng.Intn(2) == 0 {
		i := w.next % len(w.data)
		w.next++
		return w.encode(0, smallName(i), "liberation", 4, 0, w.data[i], w.want[i])
	}
	i := w.rng.Intn(len(w.data))
	return w.decode(1, smallName(i), w.data[i])
}

// rs3-mix-1m: a 50/50 split between an rs3 k=6 encode and a decode of
// another object with d00, d01 and d02 missing.
type rs3MixBench struct {
	*shardBase
	wdata, rdata []byte
	want         []uint32
}

func setupRS3Mix(e *env) (instance, error) {
	w := &rs3MixBench{shardBase: newShardBase(e)}
	var err error
	if w.wdata, err = w.input(e.sz.rs3, 0); err != nil {
		return nil, err
	}
	if w.rdata, err = w.input(e.sz.rs3, 1); err != nil {
		return nil, err
	}
	if w.want, err = referenceChecksums("rs3", 6, 0, e.sz.elem, w.wdata); err != nil {
		return nil, err
	}
	if _, err := w.preEncode("rs3w", "rs3", 6, 0, w.wdata, w.want); err != nil {
		return nil, err
	}
	m, err := w.preEncode("rs3r", "rs3", 6, 0, w.rdata, nil)
	if err != nil {
		return nil, err
	}
	return w, w.remove(m, 0, 1, 2)
}

func (w *rs3MixBench) op() opResult {
	if w.rng.Intn(2) == 0 {
		return w.encode(0, "rs3w", "rs3", 6, 0, w.wdata, w.want)
	}
	return w.decode(1, "rs3r", w.rdata)
}

// array-zipf: one-element writes (70%) and reads (30%) at Zipf(1.2)
// element offsets over a liberation k=8 p=11 array instrumented with an
// obs registry as raidmon does. Element contents are generated from
// (seed, element, version), so a version counter per element is the
// bench's shadow copy of the array.
type arrayBench struct {
	e           *env
	arr         *raidsim.Array
	rng         *rand.Rand
	zipf        *rand.Zipf
	perm        []int // Zipf rank -> element, so hot elements spread over stripes
	ver         []uint32
	buf         []byte
	want        []byte
	stripeBytes int // data bytes per stripe
}

func setupArray(e *env) (instance, error) {
	lib, err := codes.New("liberation", 8, 11)
	if err != nil {
		return nil, err
	}
	code := lib
	if e.trace {
		ac, ok := lib.(arrayCode)
		if !ok {
			return nil, fmt.Errorf("%s lacks the array capabilities", lib.Name())
		}
		code = timedCode{ac, e}
	}
	arr, err := raidsim.New(code, e.sz.elem, e.sz.stripes)
	if err != nil {
		return nil, err
	}
	arr.Instrument(e.reg)
	w := &arrayBench{
		e:           e,
		arr:         arr,
		rng:         rand.New(rand.NewSource(e.seed)),
		stripeBytes: code.K() * code.W() * e.sz.elem,
		buf:         make([]byte, e.sz.elem),
		want:        make([]byte, e.sz.elem),
	}
	elems := arr.Capacity() / e.sz.elem
	w.ver = make([]uint32, elems)
	w.perm = w.rng.Perm(elems)
	w.zipf = rand.NewZipf(w.rng, 1.2, 1, uint64(elems-1))
	// Prefill with one full-stripe write per stripe.
	stripe := make([]byte, w.stripeBytes)
	elemsPerStripe := w.stripeBytes / e.sz.elem
	for s := 0; s < e.sz.stripes; s++ {
		for i := 0; i < elemsPerStripe; i++ {
			w.content(stripe[i*e.sz.elem:(i+1)*e.sz.elem], s*elemsPerStripe+i)
		}
		if err := arr.Write(s*w.stripeBytes, stripe); err != nil {
			return nil, err
		}
	}
	e.arr = arr
	return w, nil
}

// content fills b with element g's current contents.
func (w *arrayBench) content(b []byte, g int) {
	fill(b, mix(uint64(w.e.seed), uint64(g)<<32|uint64(w.ver[g])))
}

func (w *arrayBench) op() opResult {
	g := w.perm[w.zipf.Uint64()]
	off := g * w.e.sz.elem
	n := int64(len(w.buf))
	if w.rng.Intn(10) < 7 {
		w.ver[g]++
		w.content(w.buf, g)
		t0 := w.e.begin()
		err := w.arr.Write(off, w.buf)
		return opResult{class: 0, bytes: n, dur: w.e.end(t0, "write", n), err: err}
	}
	t0 := w.e.begin()
	err := w.arr.Read(off, w.buf)
	d := w.e.end(t0, "read", n)
	if err == nil {
		w.content(w.want, g)
		if !bytes.Equal(w.buf, w.want) {
			err = fmt.Errorf("read of element %d: %w", g, errMismatch)
		}
	}
	return opResult{class: 1, bytes: n, dur: d, err: err}
}

// check fails two seeded disks, compares a full degraded read with the
// shadow, rebuilds, and requires a clean scrub.
func (w *arrayBench) check() error {
	n := w.arr.NumDisks()
	d1 := w.rng.Intn(n)
	d2 := (d1 + 1 + w.rng.Intn(n-1)) % n
	for _, d := range []int{d1, d2} {
		if err := w.arr.FailDisk(d); err != nil {
			return err
		}
	}
	elem := w.e.sz.elem
	stripe := make([]byte, w.stripeBytes)
	for off := 0; off < w.arr.Capacity(); off += w.stripeBytes {
		if err := w.arr.Read(off, stripe); err != nil {
			return fmt.Errorf("degraded read at %d: %w", off, err)
		}
		for i := 0; i < w.stripeBytes; i += elem {
			w.content(w.want, (off+i)/elem)
			if !bytes.Equal(stripe[i:i+elem], w.want) {
				return fmt.Errorf("degraded read of element %d: %w", (off+i)/elem, errMismatch)
			}
		}
	}
	if err := w.arr.Rebuild(); err != nil {
		return err
	}
	res, err := w.arr.Scrub()
	if err != nil {
		return err
	}
	if len(res) != 0 {
		return fmt.Errorf("scrub after rebuild found %d bad stripes", len(res))
	}
	return nil
}

func (w *arrayBench) close() {}

// referenceChecksums computes the per-shard CRCs a shard encode of data
// must produce, straight from the code: data strips are filled stripe by
// stripe and zero-padded, as the shard layout defines.
func referenceChecksums(codeName string, k, p, elem int, data []byte) ([]uint32, error) {
	code, err := codes.New(codeName, k, p)
	if err != nil {
		return nil, err
	}
	s := core.NewStripeFor(code, elem)
	stripBytes := code.W() * elem
	sums := make([]uint32, k+code.M())
	for off := 0; off == 0 || off < len(data); off += k * stripBytes {
		for t := 0; t < k; t++ {
			lo := min(off+t*stripBytes, len(data))
			n := copy(s.Strips[t], data[lo:min(lo+stripBytes, len(data))])
			clear(s.Strips[t][n:])
		}
		if err := code.Encode(s, nil); err != nil {
			return nil, err
		}
		for i, strip := range s.Strips {
			sums[i] = crc32.Update(sums[i], crc32.IEEETable, strip)
		}
	}
	return sums, nil
}

// compareWriter is the decode sink: it checks every byte against the
// expected output instead of storing it.
type compareWriter struct {
	want []byte
	off  int
	bad  bool
}

func (w *compareWriter) Write(p []byte) (int, error) {
	end := w.off + len(p)
	if end > len(w.want) || !bytes.Equal(p, w.want[w.off:end]) {
		w.bad = true
	}
	w.off = end
	return len(p), nil
}

func (w *compareWriter) ok() bool { return !w.bad && w.off == len(w.want) }

// fill writes the splitmix64 stream of key into b.
func fill(b []byte, key uint64) {
	x := key
	for len(b) >= 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(b, mix64(x))
		b = b[8:]
	}
	if len(b) > 0 {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], mix64(x+0x9e3779b97f4a7c15))
		copy(b, t[:])
	}
}

func mix(a, b uint64) uint64 { return mix64(mix64(a) ^ b) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
