package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// shardOutage returns the faultstore rules that take one shard's disk
// out: every open and every read of the shard's path fails permanently
// once after matching calls of each have gone through. Repair's
// *.repair temps are only created, written, synced and renamed, never
// opened or read, so a repair under an outage writes the rebuilt shard
// back to its path, as it would onto a replaced disk. Rule paths match
// by substring; no shard name is a substring of another's (checked by
// TestChaosOutageSoak at every shape it runs).
func shardOutage(name string, after int) []faultstore.Rule {
	return []faultstore.Rule{
		{Path: name, Op: faultstore.OpOpen, Kind: faultstore.Permanent, Prob: 1, After: after},
		{Path: name, Op: faultstore.OpRead, Kind: faultstore.Permanent, Prob: 1, After: after},
	}
}

// TestMixedFaultLadderTrace is the composed-chaos scenario: one shard's
// disk out, seeded transient reads on a second shard, and a one-shot
// read-path bit-flip on a third, decoded one stripe per batch (so each
// shard is read once per stripe) under a causal trace. The
// decode must reproduce the original bytes, and the trace must show the
// recovery's steps in order: the per-shard health verdicts first, the
// probe span closing over them next, the rung (the erasure stream) after,
// with an injected refusal feeding the probe.
func TestMixedFaultLadderTrace(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 3*5*32*6+29)
	rand.New(rand.NewSource(77)).Read(content)
	m, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
		3, 0, 32, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, ManifestName(m.FileName))

	const outageShard, flakyShard, bitflipShard = 1, 2, 4
	rules := append(shardOutage(m.ShardName(outageShard), 0),
		faultstore.Rule{Path: m.ShardName(flakyShard), Op: faultstore.OpRead,
			Kind: faultstore.Transient, Prob: 0.5, Count: 3},
		faultstore.Rule{Path: m.ShardName(bitflipShard), Op: faultstore.OpRead,
			Kind: faultstore.BitFlip, Prob: 1, Count: 1})
	chaos := faultstore.New(store.OS{}, faultstore.Config{Seed: 5, Rules: rules})

	sink := &eventSink{}
	tracer := obs.NewTracer(sink)
	tracer.Seed(99)
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rep, err := DecodeReport(manifestPath, out, Options{
		Store: chaos, Tracer: tracer, BatchStripes: 1,
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

	events := sink.Events()
	first := map[string]int{}
	count := map[string]int{}
	for i, ev := range events {
		if _, ok := first[ev.Name]; !ok {
			first[ev.Name] = i
		}
		count[ev.Name]++
		if ev.Name == "shard.unhealthy" && ev.Attrs["shard"] == int64(outageShard) &&
			ev.Attrs["state"] == "ok" {
			t.Errorf("outage shard classified ok: %v", ev.Attrs)
		}
	}
	for _, name := range []string{
		"shard.probe", "shard.unhealthy", "shard.rung", "faultstore.inject", "store.retry",
	} {
		if count[name] == 0 {
			t.Errorf("trace is missing %q events (have %v)", name, count)
		}
	}
	// Rung ordering via the causal trace. Spans reach the sink on
	// End, so the shard.probe completion event follows its children:
	// per-shard health verdicts first, then the probe span closing over
	// them, then the rung choice; and at least one injected refusal
	// precedes the rung decision (the refusal is WHY the rung was
	// needed).
	if !(first["shard.unhealthy"] < first["shard.probe"] &&
		first["shard.probe"] < first["shard.rung"]) {
		t.Errorf("ladder out of order: probe@%d unhealthy@%d rung@%d",
			first["shard.probe"], first["shard.unhealthy"], first["shard.rung"])
	}
	if first["faultstore.inject"] > first["shard.rung"] {
		t.Errorf("first injected refusal @%d after the rung choice @%d",
			first["faultstore.inject"], first["shard.rung"])
	}
}

// TestChaosOutageSoak replays seeded shard-outage schedules over every
// registered family at each of its TestShapes. Each schedule takes 1 to
// m+1 shard paths down (shardOutage, each armed after 2–7 calls drawn
// from the seed, so an outage can strike before the probe or
// mid-stream) under one extra faultstore profile: none, transient,
// latency or chaos. Streaming batches hold one stripe, so a shard is
// read once per stripe. Encode runs clean; decode and repair then run
// under the schedule, about half of them on the set rewritten as
// version 4 (soakAsVersion4). A strict schedule (at most m outages and
// no extra profile) is within every family's parity budget: decode MUST
// be byte-identical, repair MUST succeed, and a plain-store Verify
// afterwards MUST be clean. Every other schedule must end byte-identical
// or typed. Every failure reproduces from the seed in its message.
func TestChaosOutageSoak(t *testing.T) {
	schedules := 120
	if testing.Short() {
		schedules = 30
	}
	if env := os.Getenv("CHAOS_OUTAGE_SCHEDULES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("CHAOS_OUTAGE_SCHEDULES=%q: %v", env, err)
		}
		schedules = n
	}
	infos := codes.All()
	extras := []string{"none", "transient", "latency", "chaos"}
	root := t.TempDir()

	strict := map[string]int{}
	var relaxed, struck, failedTyped, v4 int
	for i := 0; i < schedules; i++ {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		info := infos[i%len(infos)]
		// A family's j-th schedule takes its shapes in turn under one extra
		// profile before moving to the next, so every shape meets every
		// profile, "none" first.
		j := i / len(infos)
		shape := info.TestShapes[j%len(info.TestShapes)]
		extra := extras[j/len(info.TestShapes)%len(extras)]

		dir := filepath.Join(root, fmt.Sprintf("s%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 4096+int(seed%257))
		rng.Read(content)
		m, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
			shape.K, shape.P, 32, dir, Options{Code: info.Name})
		if err != nil {
			t.Fatalf("code=%s seed=%d: clean encode failed: %v", info.Name, seed, err)
		}
		for a := 0; a < m.NumShards(); a++ {
			for b := 0; b < m.NumShards(); b++ {
				if a != b && strings.Contains(m.ShardName(b), m.ShardName(a)) {
					t.Fatalf("code=%s k=%d: shard name %q contains %q; an outage rule would hit both",
						info.Name, shape.K, m.ShardName(b), m.ShardName(a))
				}
			}
		}
		manifestPath := filepath.Join(dir, ManifestName(m.FileName))
		if soakAsVersion4(seed) {
			asVersion4(t, dir, m)
			v4++
		}

		down := 1 + rng.Intn(info.M+1)
		var rules []faultstore.Rule
		for _, s := range rng.Perm(m.NumShards())[:down] {
			rules = append(rules, shardOutage(m.ShardName(s), 2+rng.Intn(6))...)
		}
		if extra != "none" {
			cfg, err := faultstore.Profile(extra, seed)
			if err != nil {
				t.Fatal(err)
			}
			rules = append(rules, cfg.Rules...)
		}
		mustSucceed := down <= info.M && extra == "none"
		desc := fmt.Sprintf("code=%s k=%d p=%d seed=%d (%d down, extra %s)",
			info.Name, shape.K, shape.P, seed, down, extra)
		opts := func(reg *obs.Registry) Options {
			return Options{
				Store: faultstore.New(store.OS{}, faultstore.Config{
					Seed: seed, Rules: rules, Registry: reg, Sleep: instantSleep}),
				BatchStripes: 1,
				Retry: store.RetryPolicy{
					MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: seed, Sleep: instantSleep},
			}
		}

		out, err := os.Create(filepath.Join(dir, "out.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		rep, derr := DecodeReport(manifestPath, out, opts(reg))
		out.Close()
		injected := reg.Snapshot().Counters["faultstore.injected.total"]
		if derr == nil {
			got, rdErr := os.ReadFile(out.Name())
			if rdErr != nil {
				t.Fatal(rdErr)
			}
			if !bytes.Equal(got, content) {
				t.Fatalf("%s: decode succeeded with wrong bytes", desc)
			}
			if mustSucceed && injected > 0 && !rep.Degraded {
				t.Errorf("%s: %d outage faults struck but decode not reported degraded", desc, injected)
			}
		} else {
			if mustSucceed {
				t.Fatalf("%s: decode failed within the parity budget: %v", desc, derr)
			}
			if !chaosAccepted(derr) {
				t.Fatalf("%s: decode failed untyped: %v", desc, derr)
			}
			failedTyped++
		}
		if mustSucceed && injected > 0 {
			struck++
		}
		os.Remove(out.Name())

		// Repair under a fresh instance of the same schedule.
		if _, rerr := RepairOpts(manifestPath, opts(nil)); rerr != nil {
			if mustSucceed {
				t.Fatalf("%s: repair failed within the parity budget: %v", desc, rerr)
			}
			if !chaosAccepted(rerr) {
				t.Fatalf("%s: repair failed untyped: %v", desc, rerr)
			}
		} else {
			if mustSucceed {
				if verr := Verify(manifestPath, Options{}); verr != nil {
					t.Fatalf("%s: Verify after repair = %v", desc, verr)
				}
			}
			// A successful repair renamed every temp into place.
			assertNoRepairTemps(t, dir)
		}
		if mustSucceed {
			strict[info.Name]++
		} else {
			relaxed++
		}
		os.RemoveAll(dir)
	}
	for _, info := range infos {
		if strict[info.Name] == 0 && schedules >= 4*len(infos) {
			t.Errorf("code=%s: no schedule exercised the strict ≤m-outage guarantee", info.Name)
		}
	}
	t.Logf("%d schedules: strict (byte-identical required) per family %v, %d of them decoded under a struck outage; %d relaxed, %d typed decode failures, %d sets decoded as version 4",
		schedules, strict, struck, relaxed, failedTyped, v4)
}

// TestManifestIgnoresPlacement: the placement block that encodes
// through the retired node layer wrote into version 3–5 manifests no
// longer has a reader. A set carrying one, as version 5 or rewritten as
// version 4, loads and decodes byte-identically, and so does one whose
// block is out of range.
func TestManifestIgnoresPlacement(t *testing.T) {
	const block = `"placement":{"policy":"spread","nodes":6,"shards":[5,0,1,2,3,4]}`
	for _, tc := range []struct {
		name  string
		v4    bool
		block string
	}{
		{"v5", false, block},
		{"v4", true, block},
		{"out of range", false, strings.Replace(block, `"nodes":6`, `"nodes":1`, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, content, m := encodeTestFile(t, 6000, 4, 0, 64)
			if tc.v4 {
				asVersion4(t, dir, m)
			}
			path := filepath.Join(dir, ManifestName(m.FileName))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			end := bytes.LastIndexByte(b, '}')
			b = append(b[:end:end], []byte(","+tc.block+"}\n")...)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadManifest(path); err != nil {
				t.Fatalf("LoadManifest with a placement block: %v", err)
			}
			decodeAndCompare(t, dir, m, content, Options{})
		})
	}
}
