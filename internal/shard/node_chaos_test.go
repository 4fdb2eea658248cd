package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultstore"
	"repro/internal/store/nodestore"
)

// nodeChaosAccepted extends the typed-failure acceptance with the
// degraded outcome: under node faults a decode may succeed degraded,
// fail unrecoverable, or fail with a classified store fault — never
// anything untyped.
func nodeChaosAccepted(err error) bool {
	var d *DegradedError
	return chaosAccepted(err) || errors.As(err, &d)
}

// encodeOnNodes encodes content through a clean node-mapped store so
// the manifest records the spread placement, returning the manifest.
func encodeOnNodes(t *testing.T, dir string, content []byte, k, p, nodes int) (*Manifest, *nodestore.Store) {
	t.Helper()
	enc := nodestore.New(nodestore.Config{Nodes: nodes, Placement: nodestore.PolicySpread})
	m, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
		k, p, 32, dir, Options{Store: enc, Code: ""})
	if err != nil {
		t.Fatalf("clean encode on %d nodes: %v", nodes, err)
	}
	return m, enc
}

// TestManifestRecordsPlacement pins the v3 manifest block: an encode
// through a node-mapped store writes policy, node count, and one
// distinct node per shard (spread, nodes = k+2); the manifest loads
// back, and a plain store decodes it byte-identically (placement is
// advisory).
func TestManifestRecordsPlacement(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 6000)
	rand.New(rand.NewSource(99)).Read(content)
	m, _ := encodeOnNodes(t, dir, content, 3, 0, 5)
	if m.Version != FormatVersion {
		t.Errorf("manifest version = %d, want %d", m.Version, FormatVersion)
	}
	loaded, err := LoadManifest(filepath.Join(dir, ManifestName(m.FileName)))
	if err != nil {
		t.Fatal(err)
	}
	pl := loaded.Placement
	if pl == nil {
		t.Fatal("manifest has no placement block")
	}
	if pl.Policy != nodestore.PolicySpread || pl.Nodes != 5 || len(pl.Shards) != 5 {
		t.Fatalf("placement = %+v, want spread over 5 nodes, 5 shards", pl)
	}
	seen := map[int]bool{}
	for _, n := range pl.Shards {
		if seen[n] {
			t.Fatalf("placement %v reuses a node; spread with nodes = k+2 must not", pl.Shards)
		}
		seen[n] = true
	}
	decodeAndCompare(t, dir, m, content, Options{})
}

// TestManifestPlacementValidation checks a corrupt placement block is
// rejected at load, not at decode.
func TestManifestPlacementValidation(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 3000)
	rand.New(rand.NewSource(7)).Read(content)
	m, _ := encodeOnNodes(t, dir, content, 3, 0, 5)
	path := filepath.Join(dir, ManifestName(m.FileName))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(b, []byte(`"nodes":5`), []byte(`"nodes":1`), 1)
	if bytes.Equal(bad, b) {
		t.Fatal("fixture edit did not take; manifest JSON layout changed?")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrManifest) {
		t.Errorf("out-of-range placement loaded: err = %v, want ErrManifest", err)
	}
}

// TestTwoNodeOutageDecodesByteIdentical is the RAID-6 design point at
// node granularity: with spread placement over k+2 nodes, two whole-node
// outages erase exactly two shards, and decode reproduces the original
// bytes through the erasure rung.
func TestTwoNodeOutageDecodesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 3*5*32*4+17)
	rand.New(rand.NewSource(42)).Read(content)
	m, enc := encodeOnNodes(t, dir, content, 3, 0, 5)
	manifestPath := filepath.Join(dir, ManifestName(m.FileName))
	manifestNode := enc.NodeFor(manifestPath)

	// Take down two shard-holding nodes that do not hold the manifest
	// (metadata is not parity-protected; losing it is a different
	// failure class).
	var victims []int
	for _, n := range m.Placement.Shards {
		if n != manifestNode && len(victims) < 2 {
			victims = append(victims, n)
		}
	}
	reg := obs.NewRegistry()
	chaos := nodestore.New(nodestore.Config{
		Nodes: 5, Placement: nodestore.PolicySpread, Registry: reg,
		Faults: []nodestore.NodeFault{
			{Node: victims[0], Kind: nodestore.Outage},
			{Node: victims[1], Kind: nodestore.Outage},
		},
	})
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rep, err := DecodeReport(manifestPath, out, Options{Store: chaos})
	if err != nil {
		t.Fatalf("decode under two node outages: %v", err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("decode under two node outages produced wrong bytes")
	}
	if !rep.Degraded {
		t.Error("two-node-outage decode not reported degraded")
	}
	// Exactly the two victims' shards were unusable, attributed to their
	// nodes.
	for i, st := range rep.Status {
		onVictim := m.Placement.Shards[i] == victims[0] || m.Placement.Shards[i] == victims[1]
		if onVictim == (st.State == StateOK) {
			t.Errorf("shard %d on node %d: state = %v", i, st.Node, st.State)
		}
		if st.Node != m.Placement.Shards[i] {
			t.Errorf("shard %d attributed to node %d, placement says %d", i, st.Node, m.Placement.Shards[i])
		}
	}
	if got := reg.Snapshot().Gauges["nodestore.nodes_down"]; got != 2 {
		t.Errorf("nodestore.nodes_down = %v, want 2", got)
	}
}

// TestRepairReplacesOntoSpareNode checks the heal-and-re-place loop: a
// repair under a whole-node outage reconstructs the lost shard, its
// temp file is re-placed onto a healthy spare node (billed to
// nodestore.replaced.total), and the healed set verifies clean.
func TestRepairReplacesOntoSpareNode(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 3*5*32*4+9)
	rand.New(rand.NewSource(13)).Read(content)
	m, enc := encodeOnNodes(t, dir, content, 3, 0, 5)
	manifestPath := filepath.Join(dir, ManifestName(m.FileName))
	manifestNode := enc.NodeFor(manifestPath)
	victim := -1
	for i, n := range m.Placement.Shards {
		if n != manifestNode {
			victim = i
			break
		}
	}
	// The outage node's shard file also has to be gone from the shared
	// backing, or the healed bytes would just land over a live copy.
	if err := os.Remove(filepath.Join(dir, m.ShardName(victim))); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	chaos := nodestore.New(nodestore.Config{
		Nodes: 5, Placement: nodestore.PolicySpread, Registry: reg,
		Faults: []nodestore.NodeFault{{Node: m.Placement.Shards[victim], Kind: nodestore.Outage}},
	})
	repaired, err := RepairOpts(manifestPath, Options{Store: chaos, Registry: reg})
	if err != nil {
		t.Fatalf("repair under node outage: %v", err)
	}
	found := false
	for _, i := range repaired {
		if i == victim {
			found = true
		}
	}
	if !found {
		t.Errorf("repaired = %v, want shard %d rebuilt", repaired, victim)
	}
	snap := reg.Snapshot()
	if snap.Counters["nodestore.replaced.total"] == 0 {
		t.Error("nodestore.replaced.total = 0, want the healed shard re-placed onto a spare")
	}
	if got := chaos.NodeFor(filepath.Join(dir, m.ShardName(victim))); got == m.Placement.Shards[victim] {
		t.Errorf("healed shard still assigned to the down node %d", got)
	}
	// The healed set is clean on a plain store, byte for byte.
	if err := Verify(manifestPath, Options{}); err != nil {
		t.Errorf("Verify after repair = %v, want nil", err)
	}
	decodeAndCompare(t, dir, m, content, Options{})
	assertNoRepairTemps(t, dir)
}

// TestBreakerTreatsHungNodeAsErased is the breaker acceptance proof on
// a fake clock: decoding with a node that hangs every op (injected
// latency far beyond the op budget), the per-node breaker erases the
// node after Threshold timeouts and fast-fails the rest, while the
// plain retry path burns its full per-op budget — strictly more
// simulated waiting for the same byte-identical output.
func TestBreakerTreatsHungNodeAsErased(t *testing.T) {
	content := make([]byte, 3*5*32*4+5)
	rand.New(rand.NewSource(8)).Read(content)

	run := func(breaker nodestore.BreakerConfig) (time.Duration, obs.Snapshot) {
		dir := t.TempDir()
		m, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
			3, 0, 32, dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		manifestPath := filepath.Join(dir, ManifestName(m.FileName))

		clock := &waitClock{}
		reg := obs.NewRegistry()
		s := nodestore.New(nodestore.Config{
			Nodes: 3, Registry: reg, Sleep: clock.sleep,
			Now:       func() time.Time { return time.Unix(0, 0) }, // cooldown never elapses
			OpTimeout: 50 * time.Millisecond,
			Breaker:   breaker,
			Faults:    []nodestore.NodeFault{{Node: 0, Kind: nodestore.LatencyFault, Delay: 10 * time.Second}},
		})
		// Pin two shards to the hung node, everything else elsewhere.
		s.Assign(filepath.Join(dir, m.ShardName(0)), 0)
		s.Assign(filepath.Join(dir, m.ShardName(3)), 0)
		for _, i := range []int{1, 2, 4} {
			s.Assign(filepath.Join(dir, m.ShardName(i)), 1+i%2)
		}
		s.Assign(manifestPath, 1)

		out, err := os.Create(filepath.Join(dir, "out"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		_, err = DecodeReport(manifestPath, out, Options{
			Store: s,
			Retry: store.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond,
				Jitter: -1, Sleep: clock.sleep},
		})
		if err != nil {
			t.Fatalf("decode with hung node: %v", err)
		}
		got, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("decode with hung node produced wrong bytes")
		}
		return clock.total(), reg.Snapshot()
	}

	retryWait, _ := run(nodestore.BreakerConfig{}) // breaker off: retry exhaustion per op
	breakerWait, snap := run(nodestore.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	if breakerWait >= retryWait {
		t.Errorf("breaker path waited %v, retry-exhaustion path %v; breaker-as-erasure must be faster",
			breakerWait, retryWait)
	}
	if snap.Counters["store.breaker.open.total"] == 0 {
		t.Error("breaker never opened on the hung node")
	}
	if snap.Counters["store.breaker.fastfail.total"] == 0 {
		t.Error("no fast-fails billed; ops kept waiting on the hung node")
	}
	t.Logf("simulated wait: retry-exhaustion %v, breaker %v", retryWait, breakerWait)
}

// waitClock accumulates requested sleeps without sleeping, safely
// across goroutines.
type waitClock struct {
	mu  sync.Mutex
	sum time.Duration
}

func (c *waitClock) sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sum += d
	c.mu.Unlock()
	return ctx.Err()
}

func (c *waitClock) total() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum
}

// TestMixedFaultLadderTrace is the composed-chaos scenario: one seeded
// schedule with a whole-node outage, a flapping node, and a read-path
// bit-flip on a surviving node, decoded under a causal trace. The
// decode must reproduce the original bytes, and the trace must show the
// ladder's rungs in order: probe first, the per-shard health verdicts
// (node-attributed) next, the rung choice after, with the node-level
// refusals feeding the probe.
func TestMixedFaultLadderTrace(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 3*5*32*6+29)
	rand.New(rand.NewSource(77)).Read(content)
	m, enc := encodeOnNodes(t, dir, content, 3, 0, 5)
	manifestPath := filepath.Join(dir, ManifestName(m.FileName))
	manifestNode := enc.NodeFor(manifestPath)

	// Cast the three roles on distinct nodes, none holding the manifest
	// (for the outage; the flap is retry-absorbed but kept clean too).
	var cast []int // shard indices
	for i, n := range m.Placement.Shards {
		if n != manifestNode && len(cast) < 2 {
			cast = append(cast, i)
		}
	}
	outageShard, flapShard := cast[0], cast[1]
	bitflipShard := -1
	for i := range m.Placement.Shards {
		if i != outageShard && i != flapShard && m.Placement.Shards[i] != manifestNode {
			bitflipShard = i
			break
		}
	}
	if bitflipShard < 0 {
		// Fall back to the manifest's node for the flip victim — the
		// flip strikes the shard file, not the manifest.
		for i := range m.Placement.Shards {
			if i != outageShard && i != flapShard {
				bitflipShard = i
				break
			}
		}
	}

	inner := faultstore.New(store.OS{}, faultstore.Config{Seed: 5, Rules: []faultstore.Rule{
		{Path: m.ShardName(bitflipShard), Op: faultstore.OpRead, Kind: faultstore.BitFlip, Prob: 1, Count: 1},
	}})
	chaos := nodestore.New(nodestore.Config{
		Nodes: 5, Placement: nodestore.PolicySpread, Base: inner, Seed: 5,
		Faults: []nodestore.NodeFault{
			{Node: m.Placement.Shards[outageShard], Kind: nodestore.Outage},
			{Node: m.Placement.Shards[flapShard], Kind: nodestore.Flap, Period: 1},
		},
	})

	flight := obs.NewFlightRecorder(2048)
	tracer := obs.NewTracer(flight)
	tracer.Seed(99)
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rep, err := DecodeReport(manifestPath, out, Options{
		Store: chaos, Tracer: tracer,
		Retry: store.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, Sleep: instantSleep},
	})
	if err != nil {
		t.Fatalf("mixed-fault decode: %v", err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("mixed-fault decode produced wrong bytes")
	}
	if !rep.Degraded {
		t.Error("mixed-fault decode not reported degraded")
	}

	events := flight.Snapshot()
	first := map[string]int{}
	count := map[string]int{}
	for i, ev := range events {
		if _, ok := first[ev.Name]; !ok {
			first[ev.Name] = i
		}
		count[ev.Name]++
		if ev.Name == "shard.unhealthy" && ev.Attrs["shard"] == int64(outageShard) {
			if ev.Attrs["node"] != int64(m.Placement.Shards[outageShard]) {
				t.Errorf("outage shard health not attributed to its node: %v", ev.Attrs)
			}
			if ev.Attrs["state"] == "ok" {
				t.Errorf("outage shard classified ok: %v", ev.Attrs)
			}
		}
	}
	for _, name := range []string{
		"shard.probe", "shard.unhealthy", "shard.rung",
		"nodestore.node_down", "nodestore.refuse", "store.retry",
	} {
		if count[name] == 0 {
			t.Errorf("trace is missing %q events (have %v)", name, count)
		}
	}
	// Rung ordering via the causal trace. Spans land in the recorder on
	// End, so the shard.probe completion event follows its children:
	// per-shard health verdicts first, then the probe span closing over
	// them, then the rung choice; and at least one node-level refusal
	// precedes the rung decision (the refusal is WHY the rung was
	// needed).
	if !(first["shard.unhealthy"] < first["shard.probe"] &&
		first["shard.probe"] < first["shard.rung"]) {
		t.Errorf("ladder out of order: probe@%d unhealthy@%d rung@%d",
			first["shard.probe"], first["shard.unhealthy"], first["shard.rung"])
	}
	if first["nodestore.refuse"] > first["shard.rung"] {
		t.Errorf("first node refusal @%d after the rung choice @%d",
			first["nodestore.refuse"], first["shard.rung"])
	}
}

// TestChaosNodesSoak replays seeded node-level fault schedules — whole-
// node outages (one and two at once), flapping membership, and hung-node
// latency — over every registered code. Encode runs clean on spread
// placement (nodes = k+m); decode and repair then run under the
// schedule, about half of them on the set rewritten as version 4
// (soakAsVersion4). The invariant: byte-identical output or a typed error,
// every run, every seed; and for outage-only schedules that spare the
// manifest's node, decode and repair MUST succeed byte-identically (at
// most two shards are lost, within every family's parity budget — the
// erasure contract at node granularity).
func TestChaosNodesSoak(t *testing.T) {
	schedules := 120
	if testing.Short() {
		schedules = 30
	}
	if env := os.Getenv("CHAOS_NODE_SCHEDULES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("CHAOS_NODE_SCHEDULES=%q: %v", env, err)
		}
		schedules = n
	}
	infos := codes.All()
	profiles := []string{"outage", "outage2", "flap", "slow", "chaos"}
	root := t.TempDir()

	var strict, relaxed, failedTyped, v4 int
	for i := 0; i < schedules; i++ {
		seed := int64(i + 1)
		info := infos[i%len(infos)]
		shape := info.TestShapes[(i/len(infos))%len(info.TestShapes)]
		profile := profiles[i%len(profiles)]
		nodes := shape.K + info.M
		faults, err := nodestore.Profile(profile, seed, nodes)
		if err != nil {
			t.Fatal(err)
		}

		dir := filepath.Join(root, fmt.Sprintf("s%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 4096+int(seed%257))
		rand.New(rand.NewSource(seed)).Read(content)
		enc := nodestore.New(nodestore.Config{Nodes: nodes, Placement: nodestore.PolicySpread})
		m, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
			shape.K, shape.P, 32, dir, Options{Store: enc, Code: info.Name})
		if err != nil {
			t.Fatalf("code=%s seed=%d: clean encode failed: %v", info.Name, seed, err)
		}
		manifestPath := filepath.Join(dir, ManifestName(m.FileName))
		if soakAsVersion4(seed) {
			asVersion4(t, dir, m)
			v4++
		}

		// An outage-only schedule that spares the manifest's node loses
		// at most two shards (spread placement, nodes = k+m, one shard
		// per node): within every family's parity budget, so the strict
		// byte-identical guarantee applies.
		outageNodes := map[int]bool{}
		for _, f := range faults {
			if f.Kind == nodestore.Outage {
				outageNodes[f.Node] = true
			}
		}
		mustSucceed := (profile == "outage" || profile == "outage2") &&
			!outageNodes[enc.NodeFor(manifestPath)]

		newChaos := func(reg *obs.Registry) *nodestore.Store {
			return nodestore.New(nodestore.Config{
				Nodes: nodes, Placement: nodestore.PolicySpread, Seed: seed,
				Faults: faults, Registry: reg,
				Sleep:     instantSleep,
				Now:       func() time.Time { return time.Unix(0, 0) },
				OpTimeout: 50 * time.Millisecond,
				Hedge:     nodestore.HedgeConfig{Quantile: 0.9},
				Breaker:   nodestore.BreakerConfig{Threshold: 3, Cooldown: time.Hour},
			})
		}
		opts := func(st *nodestore.Store) Options {
			return Options{Store: st, Retry: store.RetryPolicy{
				MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: seed, Sleep: instantSleep}}
		}

		out, err := os.Create(filepath.Join(dir, "out.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		_, derr := DecodeReport(manifestPath, out, opts(newChaos(nil)))
		out.Close()
		if derr == nil {
			got, rdErr := os.ReadFile(out.Name())
			if rdErr != nil {
				t.Fatal(rdErr)
			}
			if !bytes.Equal(got, content) {
				t.Fatalf("code=%s profile=%s seed=%d: decode succeeded with wrong bytes",
					info.Name, profile, seed)
			}
		} else {
			if mustSucceed {
				t.Fatalf("code=%s profile=%s seed=%d: decode failed under ≤2 node outages: %v",
					info.Name, profile, seed, derr)
			}
			if !nodeChaosAccepted(derr) {
				t.Fatalf("code=%s profile=%s seed=%d: decode failed untyped: %v",
					info.Name, profile, seed, derr)
			}
			failedTyped++
		}
		os.Remove(out.Name())

		// Repair under a fresh instance of the same schedule.
		_, rerr := RepairOpts(manifestPath, opts(newChaos(nil)))
		if rerr != nil {
			if mustSucceed {
				t.Fatalf("code=%s profile=%s seed=%d: repair failed under ≤2 node outages: %v",
					info.Name, profile, seed, rerr)
			}
			if !nodeChaosAccepted(rerr) {
				t.Fatalf("code=%s profile=%s seed=%d: repair failed untyped: %v",
					info.Name, profile, seed, rerr)
			}
		} else {
			if mustSucceed {
				// The healed set must verify clean on a plain store.
				if verr := Verify(manifestPath, Options{}); verr != nil {
					t.Fatalf("code=%s profile=%s seed=%d: Verify after repair = %v",
						info.Name, profile, seed, verr)
				}
			}
			// A successful repair renamed every temp into place. (A
			// FAILED repair may legitimately strand a temp on a dead
			// node — its Remove is refused like any other op there.)
			assertNoRepairTemps(t, dir)
		}
		if mustSucceed {
			strict++
		} else {
			relaxed++
		}
		os.RemoveAll(dir)
	}
	if strict == 0 {
		t.Error("no schedule exercised the strict ≤2-outage guarantee")
	}
	t.Logf("%d schedules: %d strict (byte-identical required), %d relaxed, %d typed decode failures, %d sets decoded as version 4",
		schedules, strict, relaxed, failedTyped, v4)
}
