package parallel

import (
	"math/rand/v2"
	"testing"
)

func BenchmarkForSum1M(b *testing.B) {
	n := 1 << 20
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(n, 0, func(i int) int64 { return data[i] }, func(a, b int64) int64 { return a + b })
	}
}

func BenchmarkExclusiveScan1M(b *testing.B) {
	n := 1 << 20
	src := make([]int64, n)
	dst := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7)
	}
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExclusiveScan(src, dst)
	}
}

func BenchmarkSort1M(b *testing.B) {
	n := 1 << 20
	r := rand.New(rand.NewPCG(1, 2))
	orig := make([]int64, n)
	for i := range orig {
		orig[i] = int64(r.Uint64())
	}
	data := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, orig)
		b.StartTimer()
		Sort(data, func(a, b int64) bool { return a < b })
	}
}

func BenchmarkWriteMinContended(b *testing.B) {
	// All writers target one cell: the worst case for the CAS loop.
	var cell uint64 = InfBits
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = ToBits(float64(1024 - i))
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			WriteMin(&cell, vals[i&1023])
			i++
		}
	})
}

func BenchmarkWriteMinSpread(b *testing.B) {
	// Writers spread over many cells: the common relaxation pattern.
	cells := make([]uint64, 1<<16)
	Fill(cells, InfBits)
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewPCG(7, 8))
		for pb.Next() {
			i := r.IntN(len(cells))
			WriteMin(&cells[i], ToBits(r.Float64()*100))
		}
	})
}

func BenchmarkMinIndex1M(b *testing.B) {
	n := 1 << 20
	keys := make([]float64, n)
	r := rand.New(rand.NewPCG(5, 6))
	for i := range keys {
		keys[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinIndex(n, 2, func(i int) float64 { return keys[i] })
	}
}

// BenchmarkForkJoinSubstep measures bare fork-join overhead at
// Bellman–Ford-substep scale: many small parallel regions back to back,
// the pattern a solve's inner loop produces. With the persistent pool
// this is a channel wake-up per worker instead of a goroutine spawn.
func BenchmarkForkJoinSubstep(b *testing.B) {
	work := make([]int64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Blocks(len(work), 256, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				work[j]++
			}
		})
	}
}

// BenchmarkWorkersGrainClaim measures the batched claim against the
// per-index claim on a cheap per-item loop.
func BenchmarkWorkersGrainClaim(b *testing.B) {
	n := 1 << 16
	sink := make([]int64, n)
	b.Run("grain=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Workers(n, func(_ int, claim func() (int, bool)) {
				for {
					j, ok := claim()
					if !ok {
						return
					}
					sink[j]++
				}
			})
		}
	})
	b.Run("grain=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			WorkersGrain(n, 64, func(_ int, claim func() (int, int, bool)) {
				for {
					lo, hi, ok := claim()
					if !ok {
						return
					}
					for j := lo; j < hi; j++ {
						sink[j]++
					}
				}
			})
		}
	})
}
