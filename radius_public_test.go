package radiusstep_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	rs "radiusstep"
)

func TestSolverEndToEnd(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(30, 30), 1, 500, 1)
	s, err := rs.NewSolver(g, rs.Options{Rho: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Dijkstra(g, 0)
	for _, engine := range []rs.Engine{rs.EngineSequential, rs.EngineParallel, rs.EngineFlat} {
		s2, err := rs.NewSolverPre(s.Preprocessed(), engine)
		if err != nil {
			t.Fatal(err)
		}
		dist, st, err := s2.Distances(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dist[i] != want[i] {
				t.Fatalf("%v: dist[%d] = %v, want %v", engine, i, dist[i], want[i])
			}
		}
		if err := rs.VerifyDistances(g, 0, dist); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if st.Steps < 1 {
			t.Fatalf("%v: no steps", engine)
		}
	}
}

func TestSolverDefaults(t *testing.T) {
	g := rs.Grid2D(10, 10)
	s, err := rs.NewSolver(g, rs.Options{}) // all defaults
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := s.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[99] != 18 { // manhattan distance on unit grid
		t.Fatalf("corner distance = %v, want 18", dist[99])
	}
}

// TestServingDefaults pins the defaults every serving path runs on:
// preprocessing packs DP shortcuts at k = 4, and EngineAuto runs full
// and target solves on the flat engine when the packed graph has at
// least 2^17 arcs (autoThreshold) and on the sequential engine below
// it.
func TestServingDefaults(t *testing.T) {
	want := rs.Options{Rho: 32, K: 4, Heuristic: rs.HeuristicDP}
	if got := (rs.Options{}).WithDefaults(); got != want {
		t.Fatalf("Options{}.WithDefaults() = %+v, want %+v", got, want)
	}
	const autoThreshold = 1 << 17
	for _, tc := range []struct {
		g    *rs.Graph
		full string
	}{
		{rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 50, 9), "sequential"},
		{rs.WithUniformIntWeights(rs.Grid2D(200, 200), 1, 50, 9), "flat"},
	} {
		s, err := rs.NewSolver(tc.g, rs.Options{Rho: 4})
		if err != nil {
			t.Fatal(err)
		}
		arcs := s.Preprocessed().Graph.NumArcs()
		if (arcs >= autoThreshold) != (tc.full == "flat") {
			t.Fatalf("%d arcs: on the wrong side of autoThreshold for %s", arcs, tc.full)
		}
		last := rs.Vertex(tc.g.NumVertices() - 1)
		want := rs.Dijkstra(tc.g, 0)
		r, err := s.Solve(context.Background(), rs.Query{Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Engine != tc.full {
			t.Fatalf("%d arcs: full solve ran %q, want %q", arcs, r.Stats.Engine, tc.full)
		}
		for v := range want {
			if r.Dist[v] != want[v] {
				t.Fatalf("%d arcs: dist[%d] = %v, want %v", arcs, v, r.Dist[v], want[v])
			}
		}
		r, err = s.Solve(context.Background(), rs.Query{Source: 0, Target: last, HasTarget: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Engine != tc.full || r.Distance != want[last] {
			t.Fatalf("%d arcs: target query ran %q with d=%v, want %s with d=%v", arcs, r.Stats.Engine, r.Distance, tc.full, want[last])
		}
	}
}

func TestSolverHeuristics(t *testing.T) {
	g := rs.ScaleFree(500, 4, 2)
	want := rs.Dijkstra(g, 5)
	for _, h := range []rs.Heuristic{rs.HeuristicDirect, rs.HeuristicGreedy, rs.HeuristicDP} {
		s, err := rs.NewSolver(g, rs.Options{Rho: 10, K: 3, Heuristic: h})
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := s.Distances(5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dist[i] != want[i] {
				t.Fatalf("heuristic %v: wrong distance at %d", h, i)
			}
		}
	}
}

func TestPreprocessExposesCounters(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 100, 3)
	pre, err := rs.Preprocess(g, rs.Options{Rho: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Added <= 0 || pre.Visited <= 0 || pre.EdgesScanned <= 0 {
		t.Fatalf("counters not populated: %+v", pre)
	}
	if pre.Graph.NumEdges() <= g.NumEdges() {
		t.Fatal("no shortcuts materialized")
	}
	if len(pre.Radii) != g.NumVertices() {
		t.Fatal("radii length wrong")
	}
}

func TestRadiiOnly(t *testing.T) {
	g := rs.Grid2D(10, 10)
	radii, err := rs.Radii(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if radii[55] != 1 { // interior vertex: 4 neighbors at distance 1 -> 5th closest (incl self) at 1
		t.Fatalf("r_5 interior = %v, want 1", radii[55])
	}
}

func TestDistancesTraced(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(10, 10), 1, 20, 5)
	s, err := rs.NewSolver(g, rs.Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, st, tl, err := s.DistancesTraced(0, rs.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.StepList) != st.Steps {
		t.Fatalf("trace count %d != steps %d", len(tl.StepList), st.Steps)
	}
}

func TestGraphRoundTripPublic(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.RandomConnected(50, 120, 6), 1, 10, 7)
	var buf bytes.Buffer
	if err := rs.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := rs.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("round trip changed the graph")
	}
}

func TestBuilderPublic(t *testing.T) {
	b := rs.NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(1, 2, 3)
	g := b.Build()
	dist := rs.Dijkstra(g, 0)
	if dist[2] != 5 {
		t.Fatalf("dist[2] = %v", dist[2])
	}
	if err := rs.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesPublic(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(15, 15), 1, 30, 8)
	want := rs.Dijkstra(g, 0)
	bf, rounds := rs.BellmanFord(g, 0)
	if rounds < 2 {
		t.Fatal("implausible BF rounds")
	}
	ds, st := rs.DeltaStepping(g, 0, 40)
	if st.Steps < 1 {
		t.Fatal("implausible delta steps")
	}
	for i := range want {
		if bf[i] != want[i] || ds[i] != want[i] {
			t.Fatalf("baseline mismatch at %d", i)
		}
	}
	hops, levels := rs.BFS(rs.UnitWeights(g), 0)
	if levels != 28 || hops[224] != 28 {
		t.Fatalf("bfs levels = %d, corner = %d", levels, hops[224])
	}
	phops, plevels := rs.BFSParallel(rs.UnitWeights(g), 0)
	if plevels != levels || phops[224] != hops[224] {
		t.Fatal("parallel BFS disagrees")
	}
}

func TestNewSolverPreRejectsBadInput(t *testing.T) {
	if _, err := rs.NewSolverPre(nil, rs.EngineAuto); err == nil {
		t.Fatal("nil accepted")
	}
	g := rs.Grid2D(5, 5)
	bad := &rs.Preprocessed{Graph: g, Radii: make([]float64, 3)}
	if _, err := rs.NewSolverPre(bad, rs.EngineAuto); err == nil {
		t.Fatal("mismatched radii accepted")
	}
	// A Solver checks its radii once, when it is built, so a negative,
	// NaN or +Inf radius must fail here: unchecked, all-+Inf radii gave
	// wrong distances and all-NaN radii a flat solve that never returned.
	for _, r := range []float64{-1, math.NaN(), math.Inf(1)} {
		radii := make([]float64, g.NumVertices())
		for i := range radii {
			radii[i] = r
		}
		if _, err := rs.NewSolverPre(&rs.Preprocessed{Graph: g, Original: g, Radii: radii}, rs.EngineFlat); err == nil {
			t.Fatalf("NewSolverPre accepted radius %v", r)
		}
	}
}

func TestEngineString(t *testing.T) {
	for _, e := range []rs.Engine{rs.EngineAuto, rs.EngineSequential, rs.EngineParallel, rs.EngineFlat} {
		if e.String() == "" {
			t.Fatal("empty engine name")
		}
	}
	if rs.Engine(42).String() == "" {
		t.Fatal("unknown engine should still print")
	}
}

func TestUnreachablePublic(t *testing.T) {
	b := rs.NewBuilder(4)
	b.Add(0, 1, 1)
	g := b.Build()
	s, err := rs.NewSolver(g, rs.Options{Rho: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := s.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(dist[3], 1) {
		t.Fatal("unreachable should be +Inf")
	}
}

// TestGenerateByName: n is every family's approximate vertex count, and
// an n the family cannot build is an error, not a panic.
func TestGenerateByName(t *testing.T) {
	const n = 400
	for _, kind := range []string{"grid2d", "grid3d", "road", "web", "er", "rmat", "smallworld", "comb"} {
		g, err := rs.GenerateByName(kind, n, 5)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if v := g.NumVertices(); v < n/2 || v > 2*n || g.NumEdges() < 3 {
			t.Fatalf("%s: n=%d m=%d, want between %d and %d vertices", kind, v, g.NumEdges(), n/2, 2*n)
		}
		if err := rs.Validate(g); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := rs.GenerateByName(kind, -5, 5); err == nil {
			t.Fatalf("%s: n = -5 accepted", kind)
		}
	}
	if _, err := rs.GenerateByName("nope", 10, 1); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestReorderPreservesMetric(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.ScaleFree(400, 4, 6), 1, 100, 7)
	want := rs.Dijkstra(g, 0)
	for name, reorder := range map[string]func(*rs.Graph) (*rs.Graph, []rs.Vertex){
		"bfs":    func(g *rs.Graph) (*rs.Graph, []rs.Vertex) { return rs.ReorderBFS(g, 0) },
		"degree": rs.ReorderByDegree,
	} {
		g2, perm := reorder(g)
		got := rs.Dijkstra(g2, perm[0])
		expect := rs.PermuteFloats(want, perm)
		for v := range expect {
			if got[v] != expect[v] {
				t.Fatalf("%s: distance mismatch at %d", name, v)
			}
		}
		// Radius-stepping agrees on the relabeled graph too.
		s, err := rs.NewSolver(g2, rs.Options{Rho: 8})
		if err != nil {
			t.Fatal(err)
		}
		dist, _, err := s.Distances(perm[0])
		if err != nil {
			t.Fatal(err)
		}
		for v := range expect {
			if dist[v] != expect[v] {
				t.Fatalf("%s: solver mismatch at %d", name, v)
			}
		}
	}
}

func TestRhoClamped(t *testing.T) {
	g := rs.Grid2D(3, 3)
	// Rho far beyond n must not crash; the ball is the whole graph.
	s, err := rs.NewSolver(g, rs.Options{Rho: 100000})
	if err != nil {
		t.Fatal(err)
	}
	dist, st, err := s.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[8] != 4 {
		t.Fatalf("corner = %v", dist[8])
	}
	if st.Steps != 1 {
		// Whole graph in every ball: a single step settles everything.
		t.Fatalf("steps = %d, want 1", st.Steps)
	}
}

func TestCombPublic(t *testing.T) {
	g := rs.Comb(5)
	if !rs.IsConnected(g) {
		t.Fatal("comb disconnected")
	}
	lc, ids := rs.LargestComponent(g)
	if lc.NumVertices() != g.NumVertices() || len(ids) != g.NumVertices() {
		t.Fatal("largest component of connected graph should be identity")
	}
}
