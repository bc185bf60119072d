package core

import (
	"math"
	"runtime"
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
	"radiusstep/internal/preprocess"
)

// multiEdgeGraph hand-builds a CSR with genuine parallel arcs (the
// Builder merges duplicates, so multigraphs can only arise from direct
// construction or external data): vertices 0..3 with a doubled 0–1 edge
// (weights 2 and 3), a zero-weight 1–2 edge, and a 0–3 edge.
func multiEdgeGraph() *graph.CSR {
	type arc struct {
		u, v graph.V
		w    float64
	}
	arcs := []arc{
		{0, 1, 2}, {0, 1, 3}, {0, 3, 7},
		{1, 0, 2}, {1, 0, 3}, {1, 2, 0},
		{2, 1, 0},
		{3, 0, 7},
	}
	g := &graph.CSR{Off: make([]int64, 5)}
	for _, a := range arcs {
		g.Off[a.u+1]++
	}
	for i := 1; i < len(g.Off); i++ {
		g.Off[i] += g.Off[i-1]
	}
	g.Adj = make([]graph.V, len(arcs))
	g.W = make([]float64, len(arcs))
	pos := append([]int64(nil), g.Off[:4]...)
	for _, a := range arcs {
		g.Adj[pos[a.u]] = a.v
		g.W[pos[a.u]] = a.w
		pos[a.u]++
	}
	return g
}

// disconnectedZeroMultigraph hand-builds the nastiest frontier input in
// one graph: two components, genuine parallel arcs INCLUDING a doubled
// zero-weight pair (so the ordered frontier sees repeated pushes of the
// same vertex at equal keys), and an isolated vertex. Targets the
// frontier substrate's stamp-based dedup on the engines rebuilt over it.
func disconnectedZeroMultigraph() *graph.CSR {
	type arc struct {
		u, v graph.V
		w    float64
	}
	arcs := []arc{
		// Component A: 0-1 doubled at zero weight, 1-2 zero, 0-2 heavy.
		{0, 1, 0}, {0, 1, 0}, {0, 2, 9},
		{1, 0, 0}, {1, 0, 0}, {1, 2, 0},
		{2, 1, 0}, {2, 0, 9},
		// Component B: 3-4 doubled with distinct weights.
		{3, 4, 1}, {3, 4, 2},
		{4, 3, 1}, {4, 3, 2},
		// Vertex 5 is isolated.
	}
	g := &graph.CSR{Off: make([]int64, 7)}
	for _, a := range arcs {
		g.Off[a.u+1]++
	}
	for i := 1; i < len(g.Off); i++ {
		g.Off[i] += g.Off[i-1]
	}
	g.Adj = make([]graph.V, len(arcs))
	g.W = make([]float64, len(arcs))
	pos := append([]int64(nil), g.Off[:6]...)
	for _, a := range arcs {
		g.Adj[pos[a.u]] = a.v
		g.W[pos[a.u]] = a.w
		pos[a.u]++
	}
	return g
}

// clique returns the complete unit-weight graph on n vertices — the
// dense workload, where every vertex is adjacent to every other.
func clique(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.Add(graph.V(u), graph.V(v), 1)
		}
	}
	return b.Build()
}

// atTwoProcs raises GOMAXPROCS to 2 for the rest of the test when it is
// 1, so the parallel kernel has a second worker to fork onto.
func atTwoProcs(t *testing.T) {
	if parallel.Procs() == 1 {
		t.Cleanup(func() { runtime.GOMAXPROCS(1) })
		runtime.GOMAXPROCS(2)
	}
}

// TestFiveEnginesByteIdenticalScalarAndParallel is the cross-kernel
// sibling of TestFiveEnginesByteIdenticalDistances: every engine kind,
// run on a default workspace (these graphs stay below forkArcs, so every
// substep takes the scalar push) and on a forkAll workspace (every
// substep of a parallel kind takes the edge-balanced parallel push),
// must produce Dijkstra's distances bit for bit and pass the optimality
// certificate — on random graphs with zero-weight edges and
// disconnected components, on a genuine multigraph, and on a dense
// clique. CI runs it under -race at GOMAXPROCS=4.
func TestFiveEnginesByteIdenticalScalarAndParallel(t *testing.T) {
	atTwoProcs(t)
	// Each workspace is shared across kinds and graphs: pooled-buffer reuse.
	workspaces := []struct {
		name string
		ws   *Workspace
	}{
		{"scalar", NewWorkspace()},
		{"parallel", &Workspace{forkAll: true}},
	}
	graphs := []*graph.CSR{
		multiEdgeGraph(),
		disconnectedZeroMultigraph(),
		clique(40),
	}
	for trial := 0; trial < 12; trial++ {
		n := 25 + trial*11
		graphs = append(graphs, randomGraph(n, n*(1+trial%4), int64(trial)*7817+5))
	}
	for gi, g := range graphs {
		n := g.NumVertices()
		radii, err := preprocess.RadiiOnly(g, 1+gi%5)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.V(gi % n)
		want := baseline.Dijkstra(g, src)
		for _, kind := range allKinds() {
			for _, w := range workspaces {
				got, _, err := SolveKind(g, radii, src, kind, Params{}, w.ws)
				if err != nil {
					t.Fatalf("graph %d %s %s: %v", gi, kind, w.name, err)
				}
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("graph %d %s %s: dist[%d] = %v, want %v",
							gi, kind, w.name, v, got[v], want[v])
					}
				}
				if err := check.VerifyDistances(g, src, got); err != nil {
					t.Fatalf("graph %d %s %s: certificate: %v", gi, kind, w.name, err)
				}
			}
		}
	}
}

// TestRelaxModesKeepStepStructure: the kernel only changes how a
// substep's arcs are split among workers, never the updated sets, so
// step and substep counts must be identical on the scalar and the
// parallel kernel for every engine.
func TestRelaxModesKeepStepStructure(t *testing.T) {
	atTwoProcs(t)
	g := randomGraph(300, 900, 99)
	radii, err := preprocess.RadiiOnly(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds() {
		_, ref, err := SolveKind(g, radii, 0, kind, Params{}, nil)
		if err != nil {
			t.Fatalf("%s scalar: %v", kind, err)
		}
		_, st, err := SolveKind(g, radii, 0, kind, Params{}, &Workspace{forkAll: true})
		if err != nil {
			t.Fatalf("%s parallel: %v", kind, err)
		}
		if st.Steps != ref.Steps || st.Substeps != ref.Substeps {
			t.Fatalf("%s: steps/substeps %d/%d on the parallel kernel, %d/%d on the scalar one",
				kind, st.Steps, st.Substeps, ref.Steps, ref.Substeps)
		}
	}
}

// TestRelaxDispatchGate pins the relax's dispatch by the pool's fork
// count rather than by time. Substeps below forkArcs frontier arcs run
// the scalar kernel without waking the pool; a substep at or above it
// still forks; and a forkAll workspace keeps the parallel kernel on
// small substeps. On the large graph the relax is the one place a
// sequential, flat or delta solve forks: its forks equal its substeps
// that ran on more than one worker. Every solve matches Dijkstra bit
// for bit. The small graph has at most 1,024 vertices and far fewer
// arcs than the gate; huge radii make each radius-engine solve one step
// whose Bellman–Ford substeps sweep the graph breadth first, so
// frontiers grow past a kernel's first claim chunk.
func TestRelaxDispatchGate(t *testing.T) {
	atTwoProcs(t)
	solve := func(g *graph.CSR, kind EngineKind, forkAll bool) (forks int64, maxWorkers, forked int) {
		t.Helper()
		radii := make([]float64, g.NumVertices())
		for v := range radii {
			radii[v] = 1e9
		}
		rec := NewTraceRecorder()
		before := parallel.ReadPoolCounters().Forks
		got, _, err := SolveKind(g, radii, 0, kind, Params{Recorder: rec}, &Workspace{forkAll: forkAll})
		forks = parallel.ReadPoolCounters().Forks - before
		if err != nil {
			t.Fatalf("%s forkAll=%v: %v", kind, forkAll, err)
		}
		want := baseline.Dijkstra(g, 0)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s forkAll=%v: dist[%d] = %v, want %v", kind, forkAll, v, got[v], want[v])
			}
		}
		for _, sub := range rec.Timeline().SubstepList {
			maxWorkers = max(maxWorkers, sub.Workers)
			if sub.Workers > 1 {
				forked++
			}
		}
		return forks, maxWorkers, forked
	}

	small := randomGraph(1000, 8000, 41)
	if small.NumArcs() >= forkArcs {
		t.Fatalf("small graph has %d arcs, not below the gate", small.NumArcs())
	}
	for _, kind := range []EngineKind{KindParallel, KindFlat, KindDelta, KindRho} {
		if forks, w, _ := solve(small, kind, false); forks != 0 || w != 1 {
			t.Errorf("%s below the gate: %d forks, widest substep %d workers; want 0 and 1", kind, forks, w)
		}
		if forks, w, _ := solve(small, kind, true); forks == 0 || w < 2 {
			t.Errorf("%s forkAll below the gate: %d forks, widest substep %d workers; want the parallel kernel", kind, forks, w)
		}
	}

	// 20k vertices of mean degree 20: the breadth-first substeps pass
	// forkArcs frontier arcs within a few rounds.
	large := randomGraph(20000, 200000, 43)
	for _, kind := range []EngineKind{KindSequential, KindFlat, KindDelta} {
		forks, w, forked := solve(large, kind, false)
		t.Logf("%s: %d forks, %d forked substeps", kind, forks, forked)
		if int(forks) != forked {
			t.Errorf("%s: %d forks for %d forked substeps; want one fork per forked substep and none elsewhere", kind, forks, forked)
		}
		if kind == KindFlat && (forks == 0 || w < 2) {
			t.Errorf("flat above the gate: %d forks, widest substep %d workers; want a fork", forks, w)
		}
	}
}
