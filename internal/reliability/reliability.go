// Package reliability quantifies the paper's motivation: RAID-6 is
// displacing RAID-5 because, with today's disk capacities and a fairly
// constant per-bit unrecoverable-read-error (URE) rate, the window between
// a disk failure and the end of its rebuild is long enough that a second
// failure — or a single URE while redundancy is exhausted — is no longer
// rare. A continuous-time Monte-Carlo simulation of an array's failure/
// rebuild process estimates the probability of data loss over a mission
// time, for any redundancy level; rebuild speed can be fed from the
// measured decode throughput of the codes in this repository.
package reliability

import (
	"fmt"
	"math"
	"math/rand"
)

// Params describes the simulated array.
type Params struct {
	// Disks is the total number of disks in the array.
	Disks int
	// DiskTB is the capacity of one disk in terabytes.
	DiskTB float64
	// MTTFHours is the mean time to failure of a single disk.
	MTTFHours float64
	// RebuildMBps is the sustained reconstruction rate (from the decode
	// throughput of the erasure code and the disk bandwidth budget).
	RebuildMBps float64
	// UREPerBit is the probability of an unrecoverable read error per bit
	// read (typically 1e-14 for SATA, 1e-15 for enterprise drives).
	UREPerBit float64
	// Redundancy is the number of disk losses the array tolerates:
	// 1 = RAID-5, 2 = RAID-6.
	Redundancy int
	// MissionYears is the simulated operating period.
	MissionYears float64
	// SilentPerDiskHour is the rate of silent-corruption events (bitrot
	// that checksums catch only on read) per disk-hour. Zero disables
	// silent-corruption modelling entirely.
	SilentPerDiskHour float64
	// CorrectionSuccess is the probability that the layer above the
	// disks (strip checksums that locate the error, or the paper's
	// single-column correction where none are kept, plus quarantine and
	// retry) heals a silent corruption before it matters; zero means no
	// corruption is ever healed.
	CorrectionSuccess float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Disks < 3:
		return fmt.Errorf("reliability: need at least 3 disks, got %d", p.Disks)
	case p.DiskTB <= 0 || p.MTTFHours <= 0 || p.RebuildMBps <= 0:
		return fmt.Errorf("reliability: capacity, MTTF and rebuild rate must be positive")
	case p.UREPerBit < 0:
		return fmt.Errorf("reliability: negative URE rate")
	case p.Redundancy < 1 || p.Redundancy >= p.Disks:
		return fmt.Errorf("reliability: redundancy %d out of range", p.Redundancy)
	case p.MissionYears <= 0:
		return fmt.Errorf("reliability: mission time must be positive")
	case p.SilentPerDiskHour < 0:
		return fmt.Errorf("reliability: negative silent-corruption rate")
	case p.CorrectionSuccess < 0 || p.CorrectionSuccess > 1:
		return fmt.Errorf("reliability: correction success %v outside [0,1]", p.CorrectionSuccess)
	}
	return nil
}

// RebuildHours returns the time to reconstruct one disk.
func (p Params) RebuildHours() float64 {
	bytes := p.DiskTB * 1e12
	return bytes / (p.RebuildMBps * 1e6) / 3600
}

// ureDuringRebuild returns the probability that at least one URE occurs
// while reading the surviving disks to rebuild one disk.
func (p Params) ureDuringRebuild() float64 {
	bitsRead := float64(p.Disks-1) * p.DiskTB * 1e12 * 8
	// 1 - (1-q)^bits, computed stably.
	return -math.Expm1(bitsRead * math.Log1p(-p.UREPerBit))
}

// SilentDuringRebuild returns the probability that an unhealed silent
// corruption strikes one of the surviving disks during a critical
// rebuild (one with zero redundancy left). Corruption events arrive at
// SilentPerDiskHour on each of the Disks-1 survivors for RebuildHours;
// each is healed with probability CorrectionSuccess, so only the
// residue is fatal.
func (p Params) SilentDuringRebuild() float64 {
	exposure := p.SilentPerDiskHour * float64(p.Disks-1) * p.RebuildHours()
	return (1 - p.CorrectionSuccess) * -math.Expm1(-exposure)
}

// Result summarizes a simulation.
type Result struct {
	Params      Params
	Trials      int
	Losses      int
	LossByURE   int // losses where a URE ended an already-critical rebuild
	LossByDisks int // losses from one failure too many
	// LossBySilent counts losses where a silent corruption survived the
	// correction layer during an already-critical rebuild.
	LossBySilent int
}

// LossProbability is the estimated probability of data loss over the
// mission time.
func (r Result) LossProbability() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Losses) / float64(r.Trials)
}

// Simulate runs the Monte-Carlo model. Each trial draws exponential
// failure times for the healthy disks (rate = 1/MTTF each) and services
// rebuilds one at a time; the array dies when more than Redundancy disks
// are simultaneously down, or when a URE strikes during a rebuild that
// has no redundancy left to absorb it.
func Simulate(p Params, trials int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if trials < 1 {
		return Result{}, fmt.Errorf("reliability: trials must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	res := Result{Params: p, Trials: trials}
	mission := p.MissionYears * 365.25 * 24
	lambda := 1 / p.MTTFHours
	rebuild := p.RebuildHours()
	pURE := p.ureDuringRebuild()
	pSilent := p.SilentDuringRebuild()

	for trial := 0; trial < trials; trial++ {
		t := 0.0
		failed := 0
		for t < mission {
			// Next failure among healthy disks; next repair completion if
			// any rebuild is in progress (one at a time).
			healthy := p.Disks - failed
			tFail := t + rng.ExpFloat64()/(lambda*float64(healthy))
			tRepair := math.Inf(1)
			if failed > 0 {
				tRepair = t + rebuild
			}
			if tFail < tRepair {
				t = tFail
				failed++
				if failed > p.Redundancy {
					res.Losses++
					res.LossByDisks++
					break
				}
				continue
			}
			// A rebuild completes; if it ran with zero remaining
			// redundancy, a URE — or an unhealed silent corruption — during
			// it is fatal. The silent draw happens only when the rate is
			// armed, so disabling it reproduces the exact rng sequence of
			// the original model.
			t = tRepair
			if failed == p.Redundancy {
				if rng.Float64() < pURE {
					res.Losses++
					res.LossByURE++
					break
				}
				if pSilent > 0 && rng.Float64() < pSilent {
					res.Losses++
					res.LossBySilent++
					break
				}
			}
			failed--
		}
	}
	return res, nil
}

// CompareRAID5 runs the same array at redundancy 1 and 2 and returns both
// results — the quantitative version of the paper's opening argument.
func CompareRAID5(p Params, trials int, seed int64) (raid5, raid6 Result, err error) {
	p5 := p
	p5.Redundancy = 1
	raid5, err = Simulate(p5, trials, seed)
	if err != nil {
		return
	}
	p6 := p
	p6.Redundancy = 2
	raid6, err = Simulate(p6, trials, seed+1)
	return
}
