package core

import (
	"math"
	"testing"
	"testing/quick"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
	"radiusstep/internal/preprocess"
)

// ZeroRadii returns an all-zero radius vector (Radius-Stepping degenerates
// to Dijkstra-with-batched-ties, the ρ=1 baseline of Tables 6–7).
func ZeroRadii(n int) []float64 { return make([]float64, n) }

// UniformRadii returns a constant radius vector (Radius-Stepping becomes
// approximately ∆-stepping with ∆ = r, §3).
func UniformRadii(n int, r float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r
	}
	return out
}

// solveRef is a one-shot full solve on the sequential kind, the
// reference the other kinds are checked against.
func solveRef(g *graph.CSR, radii []float64, src graph.V) ([]float64, Stats, error) {
	return SolveKind(g, radii, src, KindSequential, Params{}, nil)
}

// solveTarget runs SolveTarget on ws (a fresh workspace when nil) and
// returns the target's distance with a copy of the partial distance
// vector: settled vertices are exact, the rest tentative upper bounds
// or +Inf.
func solveTarget(g *graph.CSR, radii []float64, src, target graph.V, kind EngineKind, p Params, ws *Workspace) (float64, []float64, Stats, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	d, st, err := SolveTarget(g, radii, src, target, kind, p, ws)
	if err != nil {
		return 0, nil, Stats{}, err
	}
	return d, parallel.BitsToFloats(ws.bits), st, nil
}

type solver struct {
	name string
	fn   func(*graph.CSR, []float64, graph.V) ([]float64, Stats, error)
}

// solvers returns a one-shot full solve on each of the three radius
// kinds, which must agree on distances, steps and substeps.
func solvers() []solver {
	var out []solver
	for _, kind := range []EngineKind{KindSequential, KindParallel, KindFlat} {
		out = append(out, solver{kind.String(), func(g *graph.CSR, radii []float64, src graph.V) ([]float64, Stats, error) {
			return SolveKind(g, radii, src, kind, Params{}, nil)
		}})
	}
	return out
}

func testGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"grid-w":    gen.WithUniformIntWeights(gen.Grid2D(15, 15), 1, 100, 1),
		"grid-u":    gen.Grid2D(15, 15),
		"scalefree": gen.ScaleFree(400, 4, 2),
		"random-w":  gen.WithUniformIntWeights(gen.RandomConnected(300, 900, 3), 1, 50, 4),
		"chain":     gen.Chain(50),
		"star":      gen.Star(30),
	}
}

func TestSolversMatchDijkstraAnyRadii(t *testing.T) {
	// Correctness holds for ANY non-negative radii (Theorem 3.1): test
	// zero, uniform, r_rho, and wild mixed radii.
	for name, g := range testGraphs() {
		n := g.NumVertices()
		rrho, err := preprocess.RadiiOnly(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		mixed := make([]float64, n)
		for i := range mixed {
			mixed[i] = float64((i * 37) % 11)
		}
		radiiSets := map[string][]float64{
			"zero":    ZeroRadii(n),
			"uniform": UniformRadii(n, 3),
			"rrho":    rrho,
			"mixed":   mixed,
			"huge":    UniformRadii(n, 1e18),
		}
		want := baseline.Dijkstra(g, 0)
		for rname, radii := range radiiSets {
			for _, s := range solvers() {
				got, st, err := s.fn(g, radii, 0)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, rname, s.name, err)
				}
				if i := check.SameDistances(want, got, 0); i >= 0 {
					t.Fatalf("%s/%s/%s: dist[%d] = %v, want %v", name, rname, s.name, i, got[i], want[i])
				}
				if err := check.VerifyDistances(g, 0, got); err != nil {
					t.Fatalf("%s/%s/%s: certificate: %v", name, rname, s.name, err)
				}
				if st.Steps < 1 {
					t.Fatalf("%s/%s/%s: zero steps", name, rname, s.name)
				}
			}
		}
	}
}

func TestEnginesAgreeOnStepCounts(t *testing.T) {
	// The three engines must produce identical step AND substep counts,
	// not just distances — they implement the same algorithm.
	for name, g := range testGraphs() {
		radii, err := preprocess.RadiiOnly(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		_, stRef, _ := SolveKind(g, radii, 0, KindSequential, Params{}, nil)
		_, stEng, _ := SolveKind(g, radii, 0, KindParallel, Params{}, nil)
		_, stFlat, _ := SolveKind(g, radii, 0, KindFlat, Params{}, nil)
		if stRef.Steps != stEng.Steps || stRef.Steps != stFlat.Steps {
			t.Fatalf("%s: steps ref=%d engine=%d flat=%d", name, stRef.Steps, stEng.Steps, stFlat.Steps)
		}
		if stRef.Substeps != stEng.Substeps || stRef.Substeps != stFlat.Substeps {
			t.Fatalf("%s: substeps ref=%d engine=%d flat=%d", name, stRef.Substeps, stEng.Substeps, stFlat.Substeps)
		}
	}
}

func TestBellmanFordDegenerate(t *testing.T) {
	// An unbounded radius must give a single step (the Bellman–Ford
	// degenerate case). The largest radius the radii rule admits stands
	// in for r = ∞, which graph.CheckRadii rejects.
	g := gen.WithUniformIntWeights(gen.Grid2D(10, 10), 1, 20, 5)
	radii := UniformRadii(g.NumVertices(), math.MaxFloat64)
	want := baseline.Dijkstra(g, 0)
	for _, s := range solvers() {
		got, st, err := s.fn(g, radii, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps != 1 {
			t.Fatalf("%s: steps = %d, want 1", s.name, st.Steps)
		}
		if i := check.SameDistances(want, got, 0); i >= 0 {
			t.Fatalf("%s: mismatch at %d", s.name, i)
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(25, 25), 1, 100, 3)
	want := baseline.Dijkstra(g, 5)
	got, rounds := BellmanFord(g, 5)
	if i := check.SameDistances(want, got, 0); i >= 0 {
		t.Fatalf("mismatch at %d: %v vs %v", i, want[i], got[i])
	}
	if rounds < 2 {
		t.Fatalf("rounds = %d implausible", rounds)
	}
}

func TestBellmanFordRoundsOnChain(t *testing.T) {
	// A chain relaxes one vertex per round from the end: n-1 productive
	// rounds plus the final check.
	g := gen.Chain(10)
	_, rounds := BellmanFord(g, 0)
	if rounds != 10 {
		t.Fatalf("rounds = %d, want 10", rounds)
	}
}

func TestDijkstraDegenerate(t *testing.T) {
	// r = 0: steps = number of distinct shortest-path distances
	// (vertices with equal distance settle together).
	g := gen.WithUniformIntWeights(gen.Grid2D(10, 10), 1, 1000, 6)
	want, steps := baseline.DijkstraSteps(g, 0)
	got, st, err := solveRef(g, ZeroRadii(g.NumVertices()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if i := check.SameDistances(want, got, 0); i >= 0 {
		t.Fatalf("mismatch at %d", i)
	}
	if st.Steps != steps {
		t.Fatalf("steps = %d, want %d (Dijkstra distance classes)", st.Steps, steps)
	}
}

func TestUnweightedRhoOneEqualsBFSLevels(t *testing.T) {
	// On unit graphs with r = r_1 = 0... wait: r_1(v) = 0 (self), so
	// each step settles one distance class = one BFS level.
	for _, g := range []*graph.CSR{gen.Grid2D(12, 12), gen.ScaleFree(300, 3, 7), gen.Chain(40)} {
		_, levels := baseline.BFS(g, 0)
		_, st, err := solveRef(g, ZeroRadii(g.NumVertices()), 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps != levels {
			t.Fatalf("steps = %d, want BFS levels = %d", st.Steps, levels)
		}
	}
}

func TestSubstepBoundOnPreprocessedGraph(t *testing.T) {
	// Theorem 3.2: with r(v) <= r̄_k(v) (guaranteed by preprocessing),
	// every step takes at most k+2 substeps.
	graphs := map[string]*graph.CSR{
		"grid-w":    gen.WithUniformIntWeights(gen.Grid2D(14, 14), 1, 60, 8),
		"scalefree": gen.ScaleFree(250, 4, 9),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3} {
			for _, h := range []preprocess.Heuristic{preprocess.Greedy, preprocess.DP} {
				res, err := preprocess.Run(g, preprocess.Options{Rho: 8, K: k, Heuristic: h})
				if err != nil {
					t.Fatal(err)
				}
				for _, src := range []graph.V{0, 7, 19} {
					_, st, err := solveRef(res.G, res.Radii, src)
					if err != nil {
						t.Fatal(err)
					}
					if st.MaxSubsteps > k+2 {
						t.Fatalf("%s k=%d %s src=%d: max substeps %d > k+2=%d",
							name, k, h, src, st.MaxSubsteps, k+2)
					}
				}
			}
		}
	}
}

func TestStepBoundTheorem33(t *testing.T) {
	// Theorem 3.3: steps <= ceil(n/ρ)·(1 + ceil(log2 ρL)) on a
	// (k,ρ)-graph with r(v) = r_ρ(v).
	g := gen.WithUniformIntWeights(gen.Grid2D(20, 20), 1, 16, 10)
	n := g.NumVertices()
	for _, rho := range []int{2, 5, 10, 25} {
		res, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		L := res.G.MaxWeight()
		bound := int(math.Ceil(float64(n)/float64(rho))) * (1 + int(math.Ceil(math.Log2(float64(rho)*L))))
		_, st, err := solveRef(res.G, res.Radii, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steps > bound {
			t.Fatalf("rho=%d: steps %d > bound %d", rho, st.Steps, bound)
		}
	}
}

func TestStepsDecreaseWithRho(t *testing.T) {
	// The paper's headline empirical finding: steps fall roughly
	// inversely with ρ.
	g := gen.WithUniformIntWeights(gen.Grid2D(30, 30), 1, 10000, 11)
	var prev int
	for i, rho := range []int{1, 4, 16, 64} {
		res, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := solveRef(res.G, res.Radii, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.Steps >= prev {
			t.Fatalf("steps did not decrease: rho=%d gives %d, previous %d", rho, st.Steps, prev)
		}
		prev = st.Steps
	}
}

func TestTraceObserver(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(8, 8), 1, 50, 12)
	radii, _ := preprocess.RadiiOnly(g, 4)
	steps, st := tracedSteps(t, g, radii, 0)
	if len(steps) != st.Steps {
		t.Fatalf("traces = %d, steps = %d", len(steps), st.Steps)
	}
	totalSettled := 0
	lastDi := math.Inf(-1)
	for i, tr := range steps {
		if tr.Step != i+1 {
			t.Fatalf("trace %d has step %d", i, tr.Step)
		}
		if tr.Di < lastDi {
			t.Fatalf("round distances not monotone: %v after %v", tr.Di, lastDi)
		}
		lastDi = tr.Di
		totalSettled += tr.Settled
		if tr.Substeps < 1 || tr.Settled < 1 {
			t.Fatalf("trace %d implausible: %+v", i, tr)
		}
	}
	if totalSettled != g.NumVertices()-1 {
		t.Fatalf("settled %d, want %d", totalSettled, g.NumVertices()-1)
	}
}

// TestValidation: a solve checks the radii's length and the source.
// Radius values are checked where radii enter a Solver (graph.CheckRadii
// in newSolver and the snapshot reader), not on every solve.
func TestValidation(t *testing.T) {
	g := gen.Chain(5)
	if _, _, err := SolveKind(g, make([]float64, 3), 0, KindSequential, Params{}, nil); err == nil {
		t.Fatal("short radii accepted")
	}
	if _, _, err := SolveKind(g, make([]float64, 5), 9, KindSequential, Params{}, nil); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(6)
	b.Add(0, 1, 2)
	b.Add(1, 2, 3)
	b.Add(3, 4, 1)
	g := b.Build()
	for _, s := range solvers() {
		dist, _, err := s.fn(g, UniformRadii(6, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		if dist[0] != 0 || dist[1] != 2 || dist[2] != 5 {
			t.Fatalf("%s: reachable distances wrong: %v", s.name, dist[:3])
		}
		for _, v := range []int{3, 4, 5} {
			if !math.IsInf(dist[v], 1) {
				t.Fatalf("%s: dist[%d] = %v, want +Inf", s.name, v, dist[v])
			}
		}
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := graph.FromEdges(1, nil)
	for _, s := range solvers() {
		dist, st, err := s.fn(g, []float64{0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if dist[0] != 0 || st.Steps != 0 {
			t.Fatalf("%s: single vertex: dist=%v steps=%d", s.name, dist[0], st.Steps)
		}
	}
}

func TestNonSourceVertex(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(9, 9), 1, 30, 13)
	src := graph.V(40)
	want := baseline.Dijkstra(g, src)
	radii, _ := preprocess.RadiiOnly(g, 5)
	for _, s := range solvers() {
		got, _, err := s.fn(g, radii, src)
		if err != nil {
			t.Fatal(err)
		}
		if i := check.SameDistances(want, got, 0); i >= 0 {
			t.Fatalf("%s: mismatch at %d", s.name, i)
		}
	}
}

// TestQuickEnginesAgree drives all three engines over random graphs,
// radii and sources with testing/quick.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed uint64, srcRaw uint8, radScale uint8) bool {
		n := 50
		g := gen.WithUniformIntWeights(gen.RandomConnected(n, 120, seed), 1, 20, seed^3)
		src := graph.V(int(srcRaw) % n)
		radii := make([]float64, n)
		for i := range radii {
			radii[i] = float64((uint64(i)*seed)%uint64(1+radScale%16)) / 2
		}
		want := baseline.Dijkstra(g, src)
		d1, s1, err1 := SolveKind(g, radii, src, KindSequential, Params{}, nil)
		d2, s2, err2 := SolveKind(g, radii, src, KindParallel, Params{}, nil)
		d3, s3, err3 := SolveKind(g, radii, src, KindFlat, Params{}, nil)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if check.SameDistances(want, d1, 0) >= 0 ||
			check.SameDistances(want, d2, 0) >= 0 ||
			check.SameDistances(want, d3, 0) >= 0 {
			return false
		}
		return s1.Steps == s2.Steps && s1.Steps == s3.Steps &&
			s1.Substeps == s2.Substeps && s1.Substeps == s3.Substeps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Steps: 3, Substeps: 7}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}
