// Package benchutil is the throughput harness behind the paper's Figures
// 9-13: it times real encode/decode work over word-interleaved stripes and
// reports GB/s, sweeping the element size (Figure 9), the number of data
// disks with p varying (Figures 10 and 12) and with p fixed at 31
// (Figures 11 and 13), always comparing the original (bit-matrix
// scheduled) implementation against the paper's optimal algorithms.
//
// Absolute numbers depend on the machine; the reproduced claims are the
// relative ones — who wins, by what factor, and how the gap scales with k
// and the element size.
package benchutil

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitmatrix"
	"repro/internal/codes"
	"repro/internal/core"
)

// KB is 1024 bytes.
const KB = 1024

// Options controls measurement effort.
type Options struct {
	// MinTime is the minimum wall time spent per measured point.
	MinTime time.Duration
	// MaxPatterns caps the erasure patterns sampled per decode point
	// (0 = all pairs).
	MaxPatterns int
	// Rounds repeats each measurement and keeps the best round, shaking
	// off scheduler noise (0 behaves like 1).
	Rounds int
}

// DefaultOptions is tuned for the libbench CLI: long enough for stable
// numbers, short enough that regenerating every figure stays interactive.
func DefaultOptions() Options {
	return Options{MinTime: 100 * time.Millisecond, Rounds: 3}
}

// Quick returns options for smoke tests.
func Quick() Options {
	return Options{MinTime: 5 * time.Millisecond, MaxPatterns: 6, Rounds: 1}
}

// ThroughputPoint is one measured sample.
type ThroughputPoint struct {
	X    int     // k, or log2(element size) for Figure 9
	GBps float64 // data bytes processed per second, in GB/s
}

// ThroughputSeries is one curve.
type ThroughputSeries struct {
	Name   string
	Points []ThroughputPoint
}

// ThroughputFigure is a reproduced throughput figure.
type ThroughputFigure struct {
	ID     string
	Title  string
	XLabel string
	Series []ThroughputSeries
}

// variant names the two compared implementations.
const (
	VariantOriginal = "original"
	VariantOptimal  = "optimal"
)

// newVariant builds the requested Liberation implementation through the
// code registry. The original variant runs with Jerasure's lazy
// scheduling semantics (schedule and decoding matrix rebuilt per call),
// which is what the paper benchmarks against.
func newVariant(variant string, k, p int) (core.Code, error) {
	switch variant {
	case VariantOriginal:
		c, err := codes.New("liberation-original", k, p)
		if err != nil {
			return nil, err
		}
		c.(*bitmatrix.Code).LazyEncodeSchedule = true
		return c, nil
	case VariantOptimal:
		return codes.New("liberation", k, p)
	}
	return nil, fmt.Errorf("benchutil: unknown variant %q", variant)
}

// MeasureEncode returns the encoding throughput of code c in GB/s of data
// processed, measured over at least opt.MinTime per round (best of
// opt.Rounds rounds).
func MeasureEncode(c core.Code, elemSize int, opt Options) float64 {
	best := 0.0
	for r := 0; r < max(opt.Rounds, 1); r++ {
		if v := measureEncodeOnce(c, elemSize, opt); v > best {
			best = v
		}
	}
	return best
}

func measureEncodeOnce(c core.Code, elemSize int, opt Options) float64 {
	s := core.NewStripeFor(c, elemSize)
	s.FillRandom(rand.New(rand.NewSource(1)))
	if err := c.Encode(s, nil); err != nil {
		panic(err)
	}
	bytes := float64(s.DataSize())
	iters := 0
	start := time.Now()
	for time.Since(start) < opt.MinTime {
		if err := c.Encode(s, nil); err != nil {
			panic(err)
		}
		iters++
	}
	elapsed := time.Since(start).Seconds()
	return bytes * float64(iters) / elapsed / 1e9
}

// MeasureDecode returns the decoding throughput of code c in GB/s,
// averaged over the possible two-strip erasure patterns as the paper
// does (best of opt.Rounds rounds).
func MeasureDecode(c core.Code, elemSize int, opt Options) float64 {
	best := 0.0
	for r := 0; r < max(opt.Rounds, 1); r++ {
		if v := measureDecodeOnce(c, elemSize, opt); v > best {
			best = v
		}
	}
	return best
}

func measureDecodeOnce(c core.Code, elemSize int, opt Options) float64 {
	s := core.NewStripeFor(c, elemSize)
	s.FillRandom(rand.New(rand.NewSource(2)))
	if err := c.Encode(s, nil); err != nil {
		panic(err)
	}
	patterns := core.ErasurePairs(c.K() + c.M())
	if opt.MaxPatterns > 0 && len(patterns) > opt.MaxPatterns {
		// Deterministic spread over the pattern space.
		step := len(patterns) / opt.MaxPatterns
		var sampled [][2]int
		for i := 0; i < len(patterns); i += step {
			sampled = append(sampled, patterns[i])
		}
		patterns = sampled
	}
	bytes := float64(s.DataSize())
	perPattern := opt.MinTime / time.Duration(len(patterns))
	if perPattern < time.Millisecond {
		perPattern = time.Millisecond
	}
	total := 0.0
	for _, pat := range patterns {
		iters := 0
		start := time.Now()
		for time.Since(start) < perPattern {
			if err := c.Decode(s, pat[:], nil); err != nil {
				panic(err)
			}
			iters++
		}
		elapsed := time.Since(start).Seconds()
		total += bytes * float64(iters) / elapsed / 1e9
	}
	return total / float64(len(patterns))
}

// ElementSizeFigure reproduces Figure 9: encoding throughput against
// element size (4KB..64KB) for a given p with k = p, original vs optimal.
func ElementSizeFigure(p int, opt Options) ThroughputFigure {
	fig := ThroughputFigure{
		ID:     "9",
		Title:  fmt.Sprintf("Encoding throughputs with different element size (p = %d)", p),
		XLabel: "log2(element size)",
	}
	for _, variant := range []string{VariantOptimal, VariantOriginal} {
		series := ThroughputSeries{Name: variant + " encoding"}
		for logSize := 12; logSize <= 16; logSize++ {
			c, err := newVariant(variant, p, p)
			if err != nil {
				panic(err)
			}
			gbps := MeasureEncode(c, 1<<logSize, opt)
			series.Points = append(series.Points, ThroughputPoint{X: logSize, GBps: gbps})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// EncodeFigure reproduces Figure 10 (fixedP == 0: p varying with k) or
// Figure 11 (fixedP == 31) at the given element size.
func EncodeFigure(ks []int, fixedP, elemSize int, opt Options) ThroughputFigure {
	id, title := "10", "Encoding throughputs (p varying with k)"
	if fixedP != 0 {
		id, title = "11", fmt.Sprintf("Encoding throughputs (p = %d)", fixedP)
	}
	fig := ThroughputFigure{
		ID:     id,
		Title:  fmt.Sprintf("%s, element size = %dKB", title, elemSize/KB),
		XLabel: "k - Number of data disks",
	}
	for _, variant := range []string{VariantOriginal, VariantOptimal} {
		series := ThroughputSeries{Name: variant + " encoding"}
		for _, k := range ks {
			p := fixedP
			if p == 0 {
				p = core.NextOddPrime(k)
			}
			if k > p {
				continue
			}
			c, err := newVariant(variant, k, p)
			if err != nil {
				panic(err)
			}
			series.Points = append(series.Points,
				ThroughputPoint{X: k, GBps: MeasureEncode(c, elemSize, opt)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}

// DecodeFigure reproduces Figure 12 (fixedP == 0) or Figure 13
// (fixedP == 31) at the given element size.
func DecodeFigure(ks []int, fixedP, elemSize int, opt Options) ThroughputFigure {
	id, title := "12", "Decoding throughputs (p varying with k)"
	if fixedP != 0 {
		id, title = "13", fmt.Sprintf("Decoding throughputs (p = %d)", fixedP)
	}
	fig := ThroughputFigure{
		ID:     id,
		Title:  fmt.Sprintf("%s, element size = %dKB", title, elemSize/KB),
		XLabel: "k - Number of data disks",
	}
	for _, variant := range []string{VariantOptimal, VariantOriginal} {
		series := ThroughputSeries{Name: variant + " decoding"}
		for _, k := range ks {
			p := fixedP
			if p == 0 {
				p = core.NextOddPrime(k)
			}
			if k > p {
				continue
			}
			c, err := newVariant(variant, k, p)
			if err != nil {
				panic(err)
			}
			series.Points = append(series.Points,
				ThroughputPoint{X: k, GBps: MeasureDecode(c, elemSize, opt)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig
}
