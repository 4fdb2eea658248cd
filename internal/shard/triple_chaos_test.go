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
	"repro/internal/store/nodestore"
)

// TestChaosTripleSoak is the triple-fault acceptance soak: seeded
// schedules mixing whole-node outages with disk-level faults (shard
// files deleted or silently corrupted) against the m=3 family on spread
// placement over k+3 nodes. Every schedule injects at most three
// distinct shard failures — within the rs3 parity budget — so the
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
		nodes := k + m

		dir := filepath.Join(root, fmt.Sprintf("s%04d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 3*k*32+int(seed%251))
		rng.Read(content)
		enc := nodestore.New(nodestore.Config{Nodes: nodes, Placement: nodestore.PolicySpread})
		man, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "blob.bin",
			k, 0, 32, dir, Options{Store: enc, Code: codeName})
		if err != nil {
			t.Fatalf("seed=%d: clean encode failed: %v", seed, err)
		}
		manifestPath := filepath.Join(dir, ManifestName(man.FileName))
		manifestNode := enc.NodeFor(manifestPath)
		if soakAsVersion4(seed) {
			asVersion4(t, dir, man)
			v4++
		}

		// Budget: up to three failures total, split between whole-node
		// outages and disk faults on shards whose nodes stay up.
		budget := rng.Intn(m) + 1 // 1..3
		nodesDown := rng.Intn(budget + 1)
		victims := map[int]bool{}
		for n := 0; len(victims) < nodesDown; n++ {
			cand := rng.Intn(nodes)
			if cand != manifestNode {
				victims[cand] = true
			}
			if n > 100*nodes {
				t.Fatalf("seed=%d: could not pick %d victim nodes", seed, nodesDown)
			}
		}
		// Disk faults land on shards hosted by surviving nodes.
		var survivors []int
		for s, node := range man.Placement.Shards {
			if !victims[node] {
				survivors = append(survivors, s)
			}
		}
		rng.Shuffle(len(survivors), func(a, b int) { survivors[a], survivors[b] = survivors[b], survivors[a] })
		diskFaults := survivors[:budget-nodesDown]
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
		outages += nodesDown

		var faults []nodestore.NodeFault
		for n := range victims {
			faults = append(faults, nodestore.NodeFault{Node: n, Kind: nodestore.Outage})
		}
		newChaos := func() *nodestore.Store {
			return nodestore.New(nodestore.Config{
				Nodes: nodes, Placement: nodestore.PolicySpread, Seed: seed,
				Faults: faults,
				Sleep:  instantSleep,
				Now:    func() time.Time { return time.Unix(0, 0) },
			})
		}
		opts := func() Options {
			return Options{Store: newChaos(), Retry: store.RetryPolicy{
				MaxAttempts: 4, BaseBackoff: time.Millisecond, Seed: seed, Sleep: instantSleep}}
		}

		out, err := os.Create(filepath.Join(dir, "out.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		rep, derr := DecodeReport(manifestPath, out, opts())
		out.Close()
		if derr != nil {
			t.Fatalf("seed=%d (%d nodes down, %d disk faults): decode failed within the m=3 budget: %v",
				seed, nodesDown, len(diskFaults), derr)
		}
		got, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("seed=%d: decode returned wrong bytes under %d failures", seed, budget)
		}
		if budget > 0 && !rep.Degraded {
			t.Errorf("seed=%d: %d injected failures but decode not reported degraded", seed, budget)
		}
		os.Remove(out.Name())

		// Repair under the same schedule must heal everything the
		// surviving nodes can hold; the set must then verify clean on a
		// plain store and round-trip byte-identically.
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
	t.Logf("%d schedules: %d node outages, %d shard deletions, %d silent corruptions, %d sets decoded as version 4 — all recovered byte-identically",
		schedules, outages, deletions, corruptions, v4)
}
