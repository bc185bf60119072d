package core

import (
	"math"
	"math/rand"
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
	"radiusstep/internal/preprocess"
)

func allKinds() []EngineKind {
	return []EngineKind{KindSequential, KindParallel, KindFlat, KindDelta, KindRho}
}

// randomGraph builds a seeded random graph with integer weights in
// [0, 5] — zero-weight edges included — and NO connectivity guarantee,
// so a fair share of instances are disconnected.
func randomGraph(n, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := graph.V(rng.Intn(n))
		v := graph.V(rng.Intn(n))
		if u == v {
			continue
		}
		b.Add(u, v, float64(rng.Intn(6)))
	}
	return b.Build()
}

// TestFiveEnginesByteIdenticalDistances is the cross-engine property
// test: on random graphs (zero-weight edges, disconnected components)
// all five engines must produce byte-identical distance vectors.
// Integer weights make float sums exact, so "identical" means equal
// Float64bits, +Inf included. Each kind reuses one workspace across
// every trial, so the test also exercises pooled-buffer reuse across
// graphs of different shapes. Run under -race by CI.
func TestFiveEnginesByteIdenticalDistances(t *testing.T) {
	ws := make(map[EngineKind]*Workspace)
	for _, k := range allKinds() {
		ws[k] = NewWorkspace()
	}
	for trial := 0; trial < 30; trial++ {
		n := 20 + trial*7
		m := n * (1 + trial%4)
		g := randomGraph(n, m, int64(trial)*1299721)
		radii, err := preprocess.RadiiOnly(g, 1+trial%9)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.V(trial % n)
		want := baseline.Dijkstra(g, src)
		params := Params{Rho: trial % 11} // incl. the default quota
		for _, kind := range allKinds() {
			got, st, err := SolveKind(g, radii, src, kind, params, ws[kind])
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, kind, err)
			}
			if st.Engine != kind.String() {
				t.Fatalf("trial %d: Stats.Engine = %q, want %q", trial, st.Engine, kind)
			}
			if len(got) != n {
				t.Fatalf("trial %d %s: %d distances for %d vertices", trial, kind, len(got), n)
			}
			for v := range got {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("trial %d %s: dist[%d] = %v (bits %x), want %v (bits %x)",
						trial, kind, v, got[v], math.Float64bits(got[v]),
						want[v], math.Float64bits(want[v]))
				}
			}
			if err := check.VerifyDistances(g, src, got); err != nil {
				t.Fatalf("trial %d %s: certificate: %v", trial, kind, err)
			}
		}
	}
}

// TestRadiiFreeKindsAcceptNilRadii: Δ- and ρ-stepping never consult the
// radii, so they run without preprocessing; the radius kinds must still
// reject nil radii.
func TestRadiiFreeKindsAcceptNilRadii(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(9, 9), 1, 40, 3)
	want := baseline.Dijkstra(g, 0)
	for _, kind := range []EngineKind{KindDelta, KindRho} {
		got, _, err := SolveKind(g, nil, 0, kind, Params{}, nil)
		if err != nil {
			t.Fatalf("%s with nil radii: %v", kind, err)
		}
		if i := check.SameDistances(want, got, 0); i >= 0 {
			t.Fatalf("%s: mismatch at %d", kind, i)
		}
	}
	for _, kind := range []EngineKind{KindSequential, KindParallel, KindFlat} {
		if _, _, err := SolveKind(g, nil, 0, kind, Params{}, nil); err == nil {
			t.Fatalf("%s accepted nil radii", kind)
		}
	}
}

func TestSolveKindRejectsUnknownKind(t *testing.T) {
	g := gen.Chain(4)
	if _, _, err := SolveKind(g, ZeroRadii(4), 0, EngineKind(99), Params{}, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, err := SolveKind(g, ZeroRadii(4), 0, EngineKind(-1), Params{}, nil); err == nil {
		t.Fatal("negative kind accepted")
	}
}

// TestSolveKindTargetEveryEngine: early termination works for every
// strategy — the settled-set-is-exact invariant is engine-independent.
func TestSolveKindTargetEveryEngine(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(12, 12), 1, 25, 7)
	radii, err := preprocess.RadiiOnly(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Dijkstra(g, 0)
	for _, kind := range allKinds() {
		for _, dst := range []graph.V{1, 40, 143} {
			d, _, err := SolveTarget(g, radii, 0, dst, kind, Params{}, NewWorkspace())
			if err != nil {
				t.Fatalf("%s target %d: %v", kind, dst, err)
			}
			if d != want[dst] {
				t.Fatalf("%s target %d: %v, want %v", kind, dst, d, want[dst])
			}
		}
	}
	if _, _, err := SolveTarget(g, radii, 0, 9999, KindSequential, Params{}, NewWorkspace()); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestSolveRefTargetExactAndEarly(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(40, 40), 1, 100, 4)
	radii, err := preprocess.RadiiOnly(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	full := baseline.Dijkstra(g, 0)
	_, stFull, _ := solveRef(g, radii, 0)
	for _, target := range []graph.V{1, 41, 800, 1599} {
		d, dist, st, err := solveTarget(g, radii, 0, target, KindSequential, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d != full[target] {
			t.Fatalf("target %d: %v, want %v", target, d, full[target])
		}
		if dist[target] != d {
			t.Fatal("partial vector inconsistent at target")
		}
		if st.Steps > stFull.Steps {
			t.Fatalf("target solve took more steps than full: %d > %d", st.Steps, stFull.Steps)
		}
		// Settled prefix exactness: every vertex with final distance
		// strictly below the target's must be exact in the partial
		// vector (it settled in an earlier or equal annulus).
		for v, want := range full {
			if want < d && dist[v] != want {
				t.Fatalf("target %d: settled prefix wrong at %d", target, v)
			}
		}
	}
	// Near target needs fewer steps than far target.
	_, _, stNear, _ := solveTarget(g, radii, 0, 1, KindSequential, Params{}, nil)
	_, _, stFar, _ := solveTarget(g, radii, 0, 1599, KindSequential, Params{}, nil)
	if stNear.Steps >= stFar.Steps {
		t.Fatalf("near %d vs far %d steps", stNear.Steps, stFar.Steps)
	}
}

func TestSolveRefTargetSelf(t *testing.T) {
	g := gen.Chain(10)
	radii := ZeroRadii(10)
	d, _, _, err := solveTarget(g, radii, 3, 3, KindSequential, Params{}, nil)
	if err != nil || d != 0 {
		t.Fatalf("self target: %v, %v", d, err)
	}
}

func TestSolveRefTargetUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.Add(0, 1, 1)
	g := b.Build()
	d, _, _, err := solveTarget(g, ZeroRadii(4), 0, 3, KindSequential, Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("unreachable target = %v", d)
	}
	if _, _, _, err := solveTarget(g, ZeroRadii(4), 0, 9, KindSequential, Params{}, nil); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

// TestDeltaRhoStepStructure sanity-checks the strategies' round
// structure: on unit weights the derived Δ is below 1, so each Δ-step
// settles exactly one BFS level, and a larger ρ must not increase the
// step count.
func TestDeltaRhoStepStructure(t *testing.T) {
	unit := gen.Grid2D(20, 20)
	_, levels := baseline.BFS(unit, 0)
	if _, st, err := SolveKind(unit, nil, 0, KindDelta, Params{}, nil); err != nil || st.Steps != levels {
		t.Fatalf("Δ-stepping on unit weights: %d steps (err %v), want BFS levels = %d", st.Steps, err, levels)
	}
	g := gen.WithUniformIntWeights(unit, 1, 100, 11)
	n := g.NumVertices()
	_, stSmall, err := SolveKind(g, nil, 0, KindRho, Params{Rho: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stBig, err := SolveKind(g, nil, 0, KindRho, Params{Rho: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stBig.Steps > stSmall.Steps {
		t.Fatalf("ρ=n produced more steps (%d) than ρ=1 (%d)", stBig.Steps, stSmall.Steps)
	}
}

// (TestNthSmallest moved to internal/frontier with the quickselect: the
// rank query is now the substrate's SelectKth.)

func TestDefaultDelta(t *testing.T) {
	if d := DefaultDelta(graph.FromEdges(1, nil)); !(d > 0) {
		t.Fatalf("edgeless graph: delta %v not positive", d)
	}
	b := graph.NewBuilder(3)
	b.Add(0, 1, 0)
	b.Add(1, 2, 0)
	if d := DefaultDelta(b.Build()); !(d > 0) {
		t.Fatalf("all-zero weights: delta %v not positive", d)
	}
	g := gen.WithUniformIntWeights(gen.Grid2D(8, 8), 1, 100, 2)
	if d := DefaultDelta(g); !(d > 0) || math.IsInf(d, 1) {
		t.Fatalf("grid: implausible delta %v", d)
	}
}
