package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// TestChaosTripleSoak is the triple-fault acceptance soak: seeded
// schedules mixing shard outages (shardOutage, armed from the first
// call) with disk-level faults (shard files deleted or silently
// corrupted) against the m=3 family. Every schedule injects at most
// three distinct shard failures — within the rs3 parity budget — so the
// contract is strict: decode MUST return byte-identical data, repair
// MUST heal the set, and a plain-store verify afterwards MUST be clean.
// About half the schedules decode the set rewritten as version 4
// (soakAsVersion4). Every failure reproduces from the seed printed in
// the test log.
func TestChaosTripleSoak(t *testing.T) {
	schedules := 100
	if testing.Short() {
		schedules = 25
	}
	if env := os.Getenv("CHAOS_TRIPLE_SCHEDULES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			t.Fatalf("CHAOS_TRIPLE_SCHEDULES=%q: %v", env, err)
		}
		schedules = n
	}

	const codeName = "rs3"
	root := t.TempDir()
	var outages, deletions, corruptions, v4 int
	for i := 0; i < schedules; i++ {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		k := []int{3, 6}[i%2]
		const m = 3
		shards := k + m

		dir := filepath.Join(root, fmt.Sprintf("s%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 3*k*32+int(seed%251))
		rng.Read(content)
		man, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
			k, 0, 32, dir, Options{Code: codeName})
		if err != nil {
			t.Fatalf("seed=%d: clean encode failed: %v", seed, err)
		}
		manifestPath := filepath.Join(dir, ManifestName(man.FileName))
		if soakAsVersion4(seed) {
			asVersion4(t, dir, man)
			v4++
		}

		// Budget: up to three failures total, split between shard outages
		// and disk faults on other shards.
		budget := rng.Intn(m) + 1 // 1..3
		down := rng.Intn(budget + 1)
		perm := rng.Perm(shards)
		var rules []faultstore.Rule
		for _, s := range perm[:down] {
			rules = append(rules, shardOutage(man.ShardName(s), 0)...)
		}
		diskFaults := perm[down:budget]
		for _, s := range diskFaults {
			path := filepath.Join(dir, man.ShardName(s))
			if rng.Intn(2) == 0 {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				deletions++
			} else {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				corruptions++
			}
		}
		outages += down

		opts := func() Options {
			return Options{
				Store: faultstore.New(store.OS{}, faultstore.Config{Seed: seed, Rules: rules}),
				Retry: store.RetryPolicy{
					MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: seed, Sleep: instantSleep},
			}
		}

		out, err := os.Create(filepath.Join(dir, "out.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		rep, derr := DecodeReport(manifestPath, out, opts())
		out.Close()
		if derr != nil {
			t.Fatalf("seed=%d (%d shards down, %d disk faults): decode failed within the m=3 budget: %v",
				seed, down, len(diskFaults), derr)
		}
		got, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("seed=%d: decode returned wrong bytes under %d failures", seed, budget)
		}
		if !rep.Degraded {
			t.Errorf("seed=%d: %d injected failures but decode not reported degraded", seed, budget)
		}
		os.Remove(out.Name())

		// Repair under the same schedule must rebuild every failed shard
		// and write it back to its path; the set must then verify clean
		// on a plain store and round-trip byte-identically.
		if _, rerr := RepairOpts(manifestPath, opts()); rerr != nil {
			t.Fatalf("seed=%d: repair failed within the m=3 budget: %v", seed, rerr)
		}
		if verr := Verify(manifestPath, Options{}); verr != nil {
			t.Fatalf("seed=%d: Verify after repair = %v", seed, verr)
		}
		decodeAndCompare(t, dir, man, content, Options{})
		assertNoRepairTemps(t, dir)
		os.RemoveAll(dir)
	}
	t.Logf("%d schedules: %d shard outages, %d shard deletions, %d silent corruptions, %d sets decoded as version 4 — all recovered byte-identically",
		schedules, outages, deletions, corruptions, v4)
}
