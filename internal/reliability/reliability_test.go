package reliability

import (
	"math"
	"testing"
)

func baseParams() Params {
	return Params{
		Disks:        12,
		DiskTB:       16,
		MTTFHours:    1.2e6,
		RebuildMBps:  100,
		UREPerBit:    1e-14,
		Redundancy:   2,
		MissionYears: 5,
	}
}

func TestValidate(t *testing.T) {
	good := baseParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Disks = 2 },
		func(p *Params) { p.DiskTB = 0 },
		func(p *Params) { p.MTTFHours = -1 },
		func(p *Params) { p.RebuildMBps = 0 },
		func(p *Params) { p.UREPerBit = -1e-15 },
		func(p *Params) { p.Redundancy = 0 },
		func(p *Params) { p.Redundancy = 12 },
		func(p *Params) { p.MissionYears = 0 },
		func(p *Params) { p.SilentPerDiskHour = -1 },
		func(p *Params) { p.CorrectionSuccess = -0.1 },
		func(p *Params) { p.CorrectionSuccess = 1.1 },
	}
	for i, mutate := range bad {
		p := baseParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
	if _, err := Simulate(baseParams(), 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestRebuildHours(t *testing.T) {
	p := baseParams()
	// 16 TB at 100 MB/s = 1.6e5 seconds = ~44.4 hours.
	if got := p.RebuildHours(); math.Abs(got-44.44) > 0.1 {
		t.Errorf("rebuild hours = %.2f, want ~44.4", got)
	}
}

func TestRAID6BeatsRAID5(t *testing.T) {
	// The paper's opening claim, quantified: at modern capacities and URE
	// rates, RAID-5 loses data in a meaningful fraction of missions while
	// RAID-6 survives essentially always.
	r5, r6, err := CompareRAID5(baseParams(), 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	p5, p6 := r5.LossProbability(), r6.LossProbability()
	if p5 < 0.01 {
		t.Errorf("RAID-5 loss probability %.4f implausibly low for 16TB SATA disks", p5)
	}
	if p6 >= p5/10 {
		t.Errorf("RAID-6 (%.5f) not at least 10x safer than RAID-5 (%.5f)", p6, p5)
	}
	// With SATA-class URE rates, most RAID-5 losses come from UREs during
	// the unprotected rebuild, not from a second whole-disk failure.
	if r5.LossByURE <= r5.LossByDisks {
		t.Errorf("RAID-5 losses: %d by URE vs %d by disk — expected URE-dominated",
			r5.LossByURE, r5.LossByDisks)
	}
}

// TestTripleParityBeatsDouble extends the redundancy ladder one rung:
// with the rs3 family's three-parity budget, the mission loss
// probability drops again relative to RAID-6 under identical disks.
func TestTripleParityBeatsDouble(t *testing.T) {
	p2 := baseParams()
	p2.Redundancy = 2
	r2, err := Simulate(p2, 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	p3 := baseParams()
	p3.Redundancy = 3
	r3, err := Simulate(p3, 4000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Losses > r2.Losses {
		t.Errorf("triple parity lost more missions than double: %d vs %d", r3.Losses, r2.Losses)
	}
	if r2.Losses > 0 && r3.Losses >= r2.Losses {
		t.Errorf("triple parity no safer than double: %d vs %d losses", r3.Losses, r2.Losses)
	}
}

func TestMonotonicInURE(t *testing.T) {
	p := baseParams()
	p.Redundancy = 1
	p.UREPerBit = 0
	clean, err := Simulate(p, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.UREPerBit = 1e-14
	dirty, err := Simulate(p, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Losses <= clean.Losses {
		t.Errorf("URE rate did not increase losses: %d vs %d", dirty.Losses, clean.Losses)
	}
	if clean.LossByURE != 0 {
		t.Errorf("URE losses with zero URE rate: %d", clean.LossByURE)
	}
}

func TestSilentDuringRebuildHandComputed(t *testing.T) {
	// 0.36 TB at 100 MB/s is 3600 s: exactly one rebuild hour. With 10
	// surviving disks at 0.01 silent events per disk-hour the exposure is
	// 0.1 events, and with the correction layer healing 75% of hits:
	//
	//	P = (1 - 0.75) × (1 - e^-0.1)
	p := Params{
		Disks:             11,
		DiskTB:            0.36,
		MTTFHours:         1e6,
		RebuildMBps:       100,
		Redundancy:        2,
		MissionYears:      5,
		SilentPerDiskHour: 0.01,
		CorrectionSuccess: 0.75,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.RebuildHours(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rebuild hours = %v, want exactly 1", got)
	}
	want := 0.25 * (1 - math.Exp(-0.1))
	if got := p.SilentDuringRebuild(); math.Abs(got-want) > 1e-12 {
		t.Errorf("SilentDuringRebuild = %v, want %v", got, want)
	}
	// Disabled either way, the probability is zero.
	p.CorrectionSuccess = 1
	if got := p.SilentDuringRebuild(); got != 0 {
		t.Errorf("perfect correction: SilentDuringRebuild = %v, want 0", got)
	}
	p.CorrectionSuccess = 0
	p.SilentPerDiskHour = 0
	if got := p.SilentDuringRebuild(); got != 0 {
		t.Errorf("zero rate: SilentDuringRebuild = %v, want 0", got)
	}
}

func TestSilentDisabledPreservesSequence(t *testing.T) {
	// Perfect correction makes the silent term vanish without touching
	// the rng draw sequence: results must be identical to the rate being
	// off entirely, field for field.
	off := baseParams()
	off.Redundancy = 1
	healed := off
	healed.SilentPerDiskHour = 0.05
	healed.CorrectionSuccess = 1
	a, err := Simulate(off, 3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(healed, 3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if a.Losses != b.Losses || a.LossByURE != b.LossByURE ||
		a.LossByDisks != b.LossByDisks || b.LossBySilent != 0 {
		t.Errorf("perfect correction changed the simulation: %+v vs %+v", a, b)
	}
}

func TestSilentCorruptionIncreasesLosses(t *testing.T) {
	p := baseParams()
	p.Redundancy = 1
	p.UREPerBit = 0
	clean, err := Simulate(p, 3000, 23)
	if err != nil {
		t.Fatal(err)
	}
	p.SilentPerDiskHour = 0.002 // ~8% fatal per 44h critical rebuild
	p.CorrectionSuccess = 0
	dirty, err := Simulate(p, 3000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.LossBySilent == 0 {
		t.Error("silent-corruption losses never observed at a high rate")
	}
	if dirty.Losses <= clean.Losses {
		t.Errorf("silent corruption did not increase losses: %d vs %d",
			dirty.Losses, clean.Losses)
	}
	// The correction layer claws most of it back.
	p.CorrectionSuccess = 0.95
	corrected, err := Simulate(p, 3000, 23)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.LossBySilent*2 >= dirty.LossBySilent && dirty.LossBySilent > 20 {
		t.Errorf("95%% correction left %d of %d silent losses",
			corrected.LossBySilent, dirty.LossBySilent)
	}
}

func TestFasterRebuildHelps(t *testing.T) {
	slow := baseParams()
	slow.Redundancy = 1
	slow.RebuildMBps = 25
	fast := slow
	fast.RebuildMBps = 400
	rs, err := Simulate(slow, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Simulate(fast, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rf.LossByDisks >= rs.LossByDisks && rs.LossByDisks > 10 {
		t.Errorf("faster rebuild did not reduce double-failure losses: %d vs %d",
			rf.LossByDisks, rs.LossByDisks)
	}
}
