package bench

import (
	"testing"

	rs "radiusstep"
)

// BenchmarkParallelRmat times steady-state parallel-engine (Algorithm
// 2) solves on the BENCH_* rmat workload — the single number the
// frontier-substrate work optimizes. Run with -cpuprofile to see the
// solve-path split (relax substeps vs frontier seal/extract); run
// under GOMAXPROCS=1 to reproduce the committed BENCH_5.json regime.
// K 1 matches the harness (Measure) and the (1,ρ) construction BENCH_5
// measured; the library default, k = 4, builds a different graph.
func BenchmarkParallelRmat(b *testing.B) {
	g, err := rs.GenerateByName("rmat", 50000, 42)
	if err != nil {
		b.Fatal(err)
	}
	g = rs.WithUniformIntWeights(g, 1, 10000, 43)
	s, err := rs.NewSolver(g, rs.Options{Rho: 32, K: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	if _, _, err := s.DistancesWith(0, rs.EngineParallel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.DistancesWith(rs.Vertex((i*7919)%n), rs.EngineParallel); err != nil {
			b.Fatal(err)
		}
	}
}
