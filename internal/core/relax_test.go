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
// dense workload whose frontier arcs dominate the unsettled remainder,
// forcing the adaptive rule into pull.
func clique(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.Add(graph.V(u), graph.V(v), 1)
		}
	}
	return b.Build()
}

// TestFiveEnginesByteIdenticalPushAndPull is the cross-mode sibling of
// TestFiveEnginesByteIdenticalDistances: every engine kind, forced
// through push-only, pull-only, and adaptive substeps, must produce
// byte-identical distances on random graphs with zero-weight edges and
// disconnected components, on a genuine multigraph, and on a dense
// clique. Run under -race by CI, which also exercises the parallel
// push (edge-balanced) and pull (atomics-free sweep) kernels when
// GOMAXPROCS > 1.
func TestFiveEnginesByteIdenticalPushAndPull(t *testing.T) {
	ws := NewWorkspace() // shared across kinds, modes, and graphs: pooled-buffer reuse
	modes := []RelaxMode{RelaxPush, RelaxPull, RelaxAdaptive}
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
			for _, mode := range modes {
				got, st, err := SolveKind(g, radii, src, kind, Params{Relax: mode}, ws)
				if err != nil {
					t.Fatalf("graph %d %s mode=%d: %v", gi, kind, mode, err)
				}
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("graph %d %s mode=%d: dist[%d] = %v, want %v",
							gi, kind, mode, v, got[v], want[v])
					}
				}
				if err := check.VerifyDistances(g, src, got); err != nil {
					t.Fatalf("graph %d %s mode=%d: certificate: %v", gi, kind, mode, err)
				}
				if st.PushSubsteps+st.PullSubsteps != st.Substeps {
					t.Fatalf("graph %d %s mode=%d: push %d + pull %d != substeps %d",
						gi, kind, mode, st.PushSubsteps, st.PullSubsteps, st.Substeps)
				}
				switch mode {
				case RelaxPush:
					if st.PullSubsteps != 0 {
						t.Fatalf("graph %d %s: forced push ran %d pull substeps", gi, kind, st.PullSubsteps)
					}
				case RelaxPull:
					if st.PushSubsteps != 0 {
						t.Fatalf("graph %d %s: forced pull ran %d push substeps", gi, kind, st.PushSubsteps)
					}
				}
			}
		}
	}
}

// TestRelaxModesKeepStepStructure: the mode only changes traversal
// direction, never the updated sets, so step and substep counts must be
// identical across modes for every engine.
func TestRelaxModesKeepStepStructure(t *testing.T) {
	g := randomGraph(300, 900, 99)
	radii, err := preprocess.RadiiOnly(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds() {
		var ref Stats
		for i, mode := range []RelaxMode{RelaxPush, RelaxPull, RelaxAdaptive} {
			_, st, err := SolveKind(g, radii, 0, kind, Params{Relax: mode}, nil)
			if err != nil {
				t.Fatalf("%s mode=%d: %v", kind, mode, err)
			}
			if i == 0 {
				ref = st
				continue
			}
			if st.Steps != ref.Steps || st.Substeps != ref.Substeps {
				t.Fatalf("%s mode=%d: steps/substeps %d/%d, push mode had %d/%d",
					kind, mode, st.Steps, st.Substeps, ref.Steps, ref.Substeps)
			}
		}
	}
}

// TestAdaptivePullTriggersOnDenseFrontier: on a clique the first step's
// frontier carries almost every remaining arc, so the adaptive rule must
// choose at least one pull substep for the parallel kinds. Pull only
// pays off by skipping push's atomics, so the adaptive rule never picks
// it on the scalar path: raise GOMAXPROCS for the duration, and make the
// clique big enough that its first substep (399 vertices × 399 arcs)
// clears the forkArcs gate.
func TestAdaptivePullTriggersOnDenseFrontier(t *testing.T) {
	if parallel.Procs() == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	g := clique(400)
	want := baseline.Dijkstra(g, 0)
	got, st, err := SolveKind(g, nil, 0, KindDelta, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i := check.SameDistances(want, got, 0); i >= 0 {
		t.Fatalf("clique distances wrong at %d", i)
	}
	if st.PullSubsteps == 0 {
		t.Fatalf("adaptive mode never pulled on a clique (push=%d pull=%d)",
			st.PushSubsteps, st.PullSubsteps)
	}
}

// TestRelaxDispatchGate pins the adaptive relax's dispatch by the
// pool's fork count rather than by time. Substeps below forkArcs
// frontier arcs run the scalar kernel without waking the pool; a
// substep at or above it still forks; and the forced modes keep their
// parallel kernels on small substeps. Every solve matches Dijkstra bit
// for bit. The small graph has at most 1,024 vertices (no fork outside
// relax) and far fewer arcs than the gate; huge radii make each
// radius-engine solve one step whose Bellman–Ford substeps sweep the
// graph breadth first, so frontiers grow past a kernel's first claim
// chunk.
func TestRelaxDispatchGate(t *testing.T) {
	if parallel.Procs() == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	solve := func(g *graph.CSR, kind EngineKind, mode RelaxMode) (forks int64, maxWorkers int) {
		t.Helper()
		radii := make([]float64, g.NumVertices())
		for v := range radii {
			radii[v] = 1e9
		}
		rec := NewTraceRecorder()
		before := parallel.ReadPoolCounters().Forks
		got, _, err := SolveKind(g, radii, 0, kind, Params{Relax: mode, Recorder: rec}, nil)
		forks = parallel.ReadPoolCounters().Forks - before
		if err != nil {
			t.Fatalf("%s mode=%d: %v", kind, mode, err)
		}
		want := baseline.Dijkstra(g, 0)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("%s mode=%d: dist[%d] = %v, want %v", kind, mode, v, got[v], want[v])
			}
		}
		for _, sub := range rec.Timeline().SubstepList {
			maxWorkers = max(maxWorkers, sub.Workers)
		}
		return forks, maxWorkers
	}

	small := randomGraph(1000, 8000, 41)
	if small.NumArcs() >= forkArcs {
		t.Fatalf("small graph has %d arcs, not below the gate", small.NumArcs())
	}
	for _, kind := range []EngineKind{KindParallel, KindFlat, KindDelta, KindRho} {
		if forks, w := solve(small, kind, RelaxAdaptive); forks != 0 || w != 1 {
			t.Errorf("%s adaptive below the gate: %d forks, widest substep %d workers; want 0 and 1", kind, forks, w)
		}
		for _, mode := range []RelaxMode{RelaxPush, RelaxPull} {
			if forks, w := solve(small, kind, mode); forks == 0 || w < 2 {
				t.Errorf("%s mode=%d below the gate: %d forks, widest substep %d workers; want the parallel kernel", kind, mode, forks, w)
			}
		}
	}

	// 20k vertices of mean degree 20: the breadth-first substeps pass
	// forkArcs frontier arcs within a few rounds.
	large := randomGraph(20000, 200000, 43)
	if forks, w := solve(large, KindFlat, RelaxAdaptive); forks == 0 || w < 2 {
		t.Errorf("flat adaptive above the gate: %d forks, widest substep %d workers; want a fork", forks, w)
	}
}

// TestSolveKindRejectsUnknownRelaxMode: the force knob is validated like
// every other enum in the framework.
func TestSolveKindRejectsUnknownRelaxMode(t *testing.T) {
	g := clique(4)
	if _, _, err := SolveKind(g, nil, 0, KindDelta, Params{Relax: RelaxMode(9)}, nil); err == nil {
		t.Fatal("unknown relax mode accepted")
	}
	if _, _, err := SolveKind(g, nil, 0, KindDelta, Params{Relax: RelaxMode(-1)}, nil); err == nil {
		t.Fatal("negative relax mode accepted")
	}
}
