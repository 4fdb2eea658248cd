// Ablation benchmarks for the design choices DESIGN.md calls out: what
// each ingredient of the paper's result is worth in isolation.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmatrix"
	"repro/internal/core"
	"repro/internal/crs"
	"repro/internal/liberation"
)

// BenchmarkAblationPairReuse isolates the paper's central idea: encoding
// with common-expression (pair) reuse vs. evaluating equations (1) and
// (2) directly. The XOR saving is (k-1)/(2p(k-1)) small, but the naive
// path also touches more memory.
func BenchmarkAblationPairReuse(b *testing.B) {
	c, err := liberation.New(10, 11)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewStripe(10, 11, 4096)
	s.FillRandom(rand.New(rand.NewSource(1)))
	b.Run("naive-equations", func(b *testing.B) {
		b.SetBytes(int64(s.DataSize()))
		for i := 0; i < b.N; i++ {
			if err := c.EncodeNaive(s, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("algorithm1-pair-reuse", func(b *testing.B) {
		b.SetBytes(int64(s.DataSize()))
		for i := 0; i < b.N; i++ {
			if err := c.Encode(s, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDecodeScheduling isolates what the original decoder
// pays for: per-call matrix inversion + scheduling (lazy, as Jerasure's
// schedule_decode does and as the paper benchmarks) vs. memoized
// schedules vs. the matrix-free optimal decoder.
func BenchmarkAblationDecodeScheduling(b *testing.B) {
	const k, p = 11, 11
	erased := []int{2, 7}
	run := func(b *testing.B, code core.Code) {
		s := core.NewStripe(k, p, 4096)
		s.FillRandom(rand.New(rand.NewSource(2)))
		if err := code.Encode(s, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(s.DataSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := code.Decode(s, erased, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("original-lazy", func(b *testing.B) {
		c, _ := liberation.NewOriginal(k, p)
		run(b, c)
	})
	b.Run("original-cached", func(b *testing.B) {
		c, _ := liberation.NewOriginal(k, p)
		c.CacheDecodeSchedules = true
		run(b, c)
	})
	b.Run("optimal-matrix-free", func(b *testing.B) {
		c, _ := liberation.New(k, p)
		run(b, c)
	})
}

// BenchmarkAblationSmartVsDumbSchedule compares Jerasure's two schedule
// generators on the Liberation decoding matrix: from-scratch rows vs.
// incremental reuse (both cached, so only XOR volume differs).
func BenchmarkAblationSmartVsDumbSchedule(b *testing.B) {
	const k, p = 11, 11
	lib, _ := liberation.New(k, p)
	for _, mode := range []struct {
		name string
		dec  bitmatrix.Scheduling
	}{{"dumb", bitmatrix.Dumb}, {"smart", bitmatrix.Smart}} {
		c, err := bitmatrix.NewCode("liberation-"+mode.name, k, p,
			lib.Generator(), bitmatrix.Dumb, mode.dec)
		if err != nil {
			b.Fatal(err)
		}
		c.CacheDecodeSchedules = true
		sch, err := c.DecodeSchedule([]int{2, 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/xors=%d", mode.name, sch.XORCount()), func(b *testing.B) {
			s := core.NewStripe(k, p, 4096)
			s.FillRandom(rand.New(rand.NewSource(3)))
			if err := c.Encode(s, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(s.DataSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Decode(s, []int{2, 7}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCodeFamilies puts the Liberation optimal encoder next
// to Cauchy Reed-Solomon (Jerasure's other family, no prime constraint)
// at the same k.
func BenchmarkAblationCodeFamilies(b *testing.B) {
	const k = 10
	lib, _ := liberation.NewAuto(k)
	cauchy, err := crs.New(k)
	if err != nil {
		b.Fatal(err)
	}
	for _, cu := range []core.Code{lib, cauchy} {
		s := core.NewStripe(cu.K(), cu.W(), 4096)
		s.FillRandom(rand.New(rand.NewSource(4)))
		b.Run(cu.Name(), func(b *testing.B) {
			b.SetBytes(int64(s.DataSize()))
			for i := 0; i < b.N; i++ {
				if err := cu.Encode(s, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
