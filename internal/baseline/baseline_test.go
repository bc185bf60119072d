package baseline

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"radiusstep/internal/check"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
)

func weightedGrid(t *testing.T) *graph.CSR {
	t.Helper()
	return gen.WithUniformIntWeights(gen.Grid2D(25, 25), 1, 100, 3)
}

func TestDijkstraCertificate(t *testing.T) {
	g := weightedGrid(t)
	dist := Dijkstra(g, 0)
	if err := check.VerifyDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraSmallByHand(t *testing.T) {
	// 0 --1-- 1 --2-- 2, plus 0 --4-- 2: shortest to 2 is 3 via 1.
	b := graph.NewBuilder(3)
	b.Add(0, 1, 1)
	b.Add(1, 2, 2)
	b.Add(0, 2, 4)
	g := b.Build()
	dist := Dijkstra(g, 0)
	want := []float64{0, 1, 3}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.Add(0, 1, 1)
	b.Add(2, 3, 1)
	g := b.Build()
	dist := Dijkstra(g, 0)
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Fatal("unreachable vertices should be +Inf")
	}
	if err := check.VerifyDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraTreeParentsAreTight(t *testing.T) {
	g := weightedGrid(t)
	dist, parent := DijkstraTree(g, 7)
	for v := 0; v < g.NumVertices(); v++ {
		if graph.V(v) == 7 {
			if parent[v] != 7 {
				t.Fatal("source parent must be itself")
			}
			continue
		}
		if math.IsInf(dist[v], 1) {
			if parent[v] != -1 {
				t.Fatal("unreachable vertex with parent")
			}
			continue
		}
		p := parent[v]
		w, ok := graph.EdgeWeight(g, p, graph.V(v))
		if !ok {
			t.Fatalf("parent edge (%d,%d) missing", p, v)
		}
		if dist[p]+w != dist[v] {
			t.Fatalf("parent edge not tight at %d", v)
		}
	}
}

func TestDijkstraTreeHopMinimal(t *testing.T) {
	// Diamond with equal-length paths: 0-1-3 (1+1) and 0-3 (2).
	// The direct edge has fewer hops and must be chosen.
	b := graph.NewBuilder(4)
	b.Add(0, 1, 1)
	b.Add(1, 3, 1)
	b.Add(0, 3, 2)
	b.Add(0, 2, 5)
	g := b.Build()
	_, parent := DijkstraTree(g, 0)
	if parent[3] != 0 {
		t.Fatalf("parent[3] = %d, want 0 (hop-minimal)", parent[3])
	}
}

func TestDijkstraStepsEqualsDistinctDistances(t *testing.T) {
	g := weightedGrid(t)
	dist, steps := DijkstraSteps(g, 0)
	if err := check.VerifyDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for v, d := range dist {
		if graph.V(v) != 0 && !math.IsInf(d, 1) && d > 0 {
			distinct[d] = true
		}
	}
	if steps != len(distinct) {
		t.Fatalf("steps = %d, distinct nonzero distances = %d", steps, len(distinct))
	}
}

func TestDeltaSteppingMatchesDijkstraAcrossDeltas(t *testing.T) {
	g := weightedGrid(t)
	want := Dijkstra(g, 11)
	for _, delta := range []float64{1, 5, 50, 1000, 1e9} {
		got, st := DeltaStepping(g, 11, delta)
		if i := check.SameDistances(want, got, 0); i >= 0 {
			t.Fatalf("delta=%v: mismatch at %d: %v vs %v", delta, i, want[i], got[i])
		}
		if st.Steps < 1 || st.Substeps < st.Steps {
			t.Fatalf("delta=%v: implausible stats %+v", delta, st)
		}
	}
}

func TestDeltaSteppingDegenerateCases(t *testing.T) {
	g := weightedGrid(t)
	// Huge delta => everything lands in one bucket (Bellman-Ford-ish).
	_, st := DeltaStepping(g, 0, 1e18)
	if st.Steps != 1 {
		t.Fatalf("huge delta: steps = %d, want 1", st.Steps)
	}
	// Delta below min weight => every edge is heavy; steps is the number
	// of distinct distance classes (Dijkstra-like).
	_, st2 := DeltaStepping(g, 0, 0.5)
	if st2.Steps <= st.Steps {
		t.Fatalf("tiny delta should take many steps, got %d", st2.Steps)
	}
}

// TestDeltaSteppingEdgesScannedIndependentOfProcs: EdgesScanned counts
// the arcs each light or heavy pass tries to relax, so unlike
// Relaxations (which priority-writes win depends on interleaving) it is
// the same at every GOMAXPROCS, and every reached vertex scans each of
// its arcs at least once.
func TestDeltaSteppingEdgesScannedIndependentOfProcs(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.RandomConnected(5000, 20000, 1), 1, 100, 2)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	_, one := DeltaStepping(g, 3, 50)
	runtime.GOMAXPROCS(4)
	_, four := DeltaStepping(g, 3, 50)
	if one.EdgesScanned != four.EdgesScanned {
		t.Fatalf("EdgesScanned %d at 1 proc, %d at 4", one.EdgesScanned, four.EdgesScanned)
	}
	if one.EdgesScanned < int64(g.NumArcs()) {
		t.Fatalf("EdgesScanned %d < %d arcs", one.EdgesScanned, g.NumArcs())
	}
}

func TestDeltaSteppingPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DeltaStepping(gen.Chain(3), 0, 0)
}

func TestBFSLevels(t *testing.T) {
	g := gen.Chain(10)
	dist, levels := BFS(g, 0)
	if levels != 9 { // eccentricity: the source level is not counted
		t.Fatalf("levels = %d, want 9", levels)
	}
	for i := 0; i < 10; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d", i, dist[i])
		}
	}
}

func TestBFSParallelMatchesSequential(t *testing.T) {
	g := gen.ScaleFree(3000, 5, 2)
	want, wl := BFS(g, 17)
	got, gl := BFSParallel(g, 17)
	if wl != gl {
		t.Fatalf("levels: %d vs %d", wl, gl)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("dist[%d]: %d vs %d", i, want[i], got[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := graph.NewBuilder(3)
	b.Add(0, 1, 1)
	g := b.Build()
	dist, _ := BFS(g, 0)
	if dist[2] != -1 {
		t.Fatal("unreachable must stay -1")
	}
	pd, _ := BFSParallel(g, 0)
	if pd[2] != -1 {
		t.Fatal("parallel unreachable must stay -1")
	}
}

// TestQuickAllAgreeOnRandomGraphs cross-checks Dijkstra (against the
// certificate) and ∆-stepping (against Dijkstra) on random connected
// weighted graphs.
func TestQuickAllAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed uint64, srcRaw uint8) bool {
		g := gen.WithUniformIntWeights(gen.RandomConnected(60, 150, seed), 1, 50, seed+1)
		src := graph.V(int(srcRaw) % 60)
		want := Dijkstra(g, src)
		if err := check.VerifyDistances(g, src, want); err != nil {
			return false
		}
		ds, _ := DeltaStepping(g, src, 10)
		return check.SameDistances(want, ds, 0) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexHeapBasics(t *testing.T) {
	h := newVertexHeap(10)
	h.DecreaseKey(3, 5)
	h.DecreaseKey(7, 2)
	h.DecreaseKey(1, 8)
	h.DecreaseKey(1, 1) // decrease
	if v, k := h.PopMin(); v != 1 || k != 1 {
		t.Fatalf("pop = %d,%v", v, k)
	}
	if v, k := h.PopMin(); v != 7 || k != 2 {
		t.Fatalf("pop = %d,%v", v, k)
	}
	if v, k := h.PopMin(); v != 3 || k != 5 {
		t.Fatalf("pop = %d,%v", v, k)
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestVertexHeapPanicsOnRaise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := newVertexHeap(4)
	h.DecreaseKey(0, 1)
	h.DecreaseKey(0, 2)
}
