// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the solvers and substrates.
//
// Each BenchmarkTableN / BenchmarkFigN runs the corresponding experiment
// (results are memoized inside internal/bench, so additional b.N
// iterations hit the cache) and prints the rendered rows once, so
//
//	go test -bench=. -benchmem
//
// emits the same rows/series the paper reports. Scale defaults to
// "default" (~minutes for the whole suite); override with
// RADIUS_BENCH_SCALE=tiny|default|full.
package radiusstep_test

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	rs "radiusstep"
	"radiusstep/internal/bench"
)

func benchScale(b *testing.B) bench.Scale {
	name := os.Getenv("RADIUS_BENCH_SCALE")
	if name == "" {
		name = "default"
	}
	sc, err := bench.ScaleByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

var printedMu sync.Mutex
var printed = map[string]bool{}

func benchExperiment(b *testing.B, id string) {
	sc := benchScale(b)
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := bench.RunExperiment(&buf, id, sc); err != nil {
			b.Fatal(err)
		}
		printedMu.Lock()
		if !printed[id] {
			printed[id] = true
			fmt.Printf("\n%s", buf.String())
		}
		printedMu.Unlock()
	}
}

// --- one benchmark per paper artifact ------------------------------------

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// --- ablations ------------------------------------------------------------

func BenchmarkAblationK(b *testing.B)           { benchExperiment(b, "ablation-k") }
func BenchmarkAblationDelta(b *testing.B)       { benchExperiment(b, "ablation-delta") }
func BenchmarkAblationEngines(b *testing.B)     { benchExperiment(b, "ablation-engines") }
func BenchmarkAblationModels(b *testing.B)      { benchExperiment(b, "ablation-models") }
func BenchmarkAblationParallelism(b *testing.B) { benchExperiment(b, "ablation-parallelism") }

// --- solver micro-benchmarks ----------------------------------------------

type fixture struct {
	g    *rs.Graph
	unit *rs.Graph
	pre  *rs.Preprocessed
	src  rs.Vertex
}

var (
	fixOnce sync.Once
	fix     fixture
)

// solverFixture prepares one mid-size weighted road-like graph with ρ=64
// preprocessing, shared by the solver micro-benchmarks.
func solverFixture(b *testing.B) *fixture {
	fixOnce.Do(func() {
		raw, _ := rs.LargestComponent(rs.RoadNet(60000, 6, 7))
		fix.g = rs.WithUniformIntWeights(raw, 1, 10000, 8)
		fix.unit = rs.UnitWeights(raw)
		pre, err := rs.Preprocess(fix.g, rs.Options{Rho: 64})
		if err != nil {
			panic(err)
		}
		fix.pre = pre
		fix.src = 11
	})
	if fix.g == nil {
		b.Fatal("fixture failed")
	}
	return &fix
}

func BenchmarkDijkstra(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Dijkstra(f.g, f.src)
	}
}

func BenchmarkRadiusStepSequential(b *testing.B) {
	f := solverFixture(b)
	s, err := rs.NewSolverPre(f.pre, rs.EngineSequential)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Distances(f.src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadiusStepParallel(b *testing.B) {
	f := solverFixture(b)
	s, err := rs.NewSolverPre(f.pre, rs.EngineParallel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Distances(f.src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadiusStepFlat(b *testing.B) {
	f := solverFixture(b)
	s, err := rs.NewSolverPre(f.pre, rs.EngineFlat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Distances(f.src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaStepping(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.DeltaStepping(f.g, f.src, 2000)
	}
}

func BenchmarkBellmanFord(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.BellmanFord(f.g, f.src)
	}
}

func BenchmarkBFSParallel(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.BFSParallel(f.unit, f.src)
	}
}

func BenchmarkPreprocessRho16(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Preprocess(f.g, rs.Options{Rho: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessRho64DP(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Preprocess(f.g, rs.Options{Rho: 64, K: 3, Heuristic: rs.HeuristicDP}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadiiOnlyRho64(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Radii(f.g, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// Locality ablation: vertex order matters for CSR traversals. Random-
// geometric graphs come with effectively random ids; BFS reordering
// places neighborhoods together.
func BenchmarkDijkstraNaturalOrder(b *testing.B) {
	f := solverFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Dijkstra(f.g, f.src)
	}
}

func BenchmarkDijkstraBFSOrder(b *testing.B) {
	f := solverFixture(b)
	g2, perm := rs.ReorderBFS(f.g, f.src)
	src := perm[f.src]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Dijkstra(g2, src)
	}
}
