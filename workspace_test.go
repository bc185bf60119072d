package radiusstep_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	rs "radiusstep"
)

// raceEnabled is set by race_test.go in -race builds. sync.Pool drops
// items at random under -race, so the allocation gates skip themselves
// there; CI runs them by name without it.
var raceEnabled bool

// TestDistancesSteadyStateAllocs is the allocation-regression gate: on
// the sequential engine with a warmed workspace pool, a Distances call
// allocates O(1) — essentially just the returned vector. The graph is
// kept under the parallel primitives' sequential-fallback grain so no
// goroutines (which allocate) are spawned. CI runs this test by name.
func TestDistancesSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	g := rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 100, 3)
	s, err := rs.NewSolver(g, rs.Options{Rho: 8, Engine: rs.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool: first solves grow the workspace buffers.
	for i := 0; i < 3; i++ {
		if _, _, err := s.Distances(rs.Vertex(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := s.Distances(7); err != nil {
			t.Fatal(err)
		}
	})
	// 1 alloc for the result vector plus a little slack for the runtime;
	// the pre-workspace implementation allocated O(n) slices per solve.
	if allocs > 4 {
		t.Fatalf("steady-state Distances allocates %v objects per solve, want <= 4", allocs)
	}
}

// TestEngineSteadyStateAllocs extends the allocation gate to the
// engines rebuilt on the ordered-frontier substrate: with a warmed
// workspace pool, the parallel (Algorithm 2) and rho engines must also
// solve in O(1) allocations — the frontier's runs, staging batches and
// rank-query scratch all live in the pooled workspace arena. Before the
// substrate landed, the parallel engine allocated one treap node per
// insert (~500k allocs per 50k-vertex solve). The graph is kept under
// the parallel primitives' sequential-fallback grain so no goroutines
// (which allocate) are spawned. CI runs this test by name.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	g := rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 100, 3)
	for _, tc := range []struct {
		engine rs.Engine
		budget float64
	}{
		{rs.EngineParallel, 8},
		{rs.EngineRho, 8},
	} {
		s, err := rs.NewSolver(g, rs.Options{Rho: 8, Engine: tc.engine})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := s.Distances(rs.Vertex(i)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, st, err := s.Distances(7); err != nil || st.Engine != tc.engine.String() {
				t.Fatalf("engine %v: stats %v err %v", tc.engine, st.Engine, err)
			}
		})
		if allocs > tc.budget {
			t.Fatalf("steady-state %v Distances allocates %v objects per solve, want <= %v",
				tc.engine, allocs, tc.budget)
		}
	}
}

// TestRouteBytesConstant is the route allocation gate: on a warmed
// solver with landmarks, a pruned Route explores a ball around its
// endpoints and allocates about the same bytes on a 10k-vertex and a
// 40k-vertex grid — its path, not an n-vector. CI runs this test by
// name.
func TestRouteBytesConstant(t *testing.T) {
	perRoute := func(side int) uint64 {
		g := rs.WithUniformIntWeights(rs.Grid2D(side, side), 1, 100, 4)
		s, err := rs.NewSolver(g, rs.Options{Rho: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.BuildLandmarks(4, rs.LandmarksFarthest); err != nil {
			t.Fatal(err)
		}
		// The same offset from the grid's center on both sizes, at
		// least 30 hops away.
		src := rs.Vertex(side/2*side + side/2)
		dst := src + rs.Vertex(15*side+15)
		route := func() {
			path, _, st, err := s.Route(src, dst, rs.EngineAuto, true)
			if err != nil || len(path) < 31 || st.Pruned == 0 {
				t.Fatalf("%dx%d grid: route of %d vertices, %d pruned, err %v", side, side, len(path), st.Pruned, err)
			}
		}
		for i := 0; i < 3; i++ {
			route()
		}
		// The median route: sync.Pool caches per P (and drops items at
		// random under -race), so now and then a route misses the pool
		// and grows a fresh workspace, which says nothing about a
		// route's own cost.
		bytes := make([]uint64, 101)
		var ms runtime.MemStats
		for i := range bytes {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			route()
			runtime.ReadMemStats(&ms)
			bytes[i] = ms.TotalAlloc - before
		}
		slices.Sort(bytes)
		return bytes[len(bytes)/2]
	}
	small, large := perRoute(100), perRoute(200)
	t.Logf("bytes allocated by the median route: %d on 10k vertices, %d on 40k vertices", small, large)
	if large > small+4<<10 {
		t.Fatalf("the median route allocates %d bytes on 40k vertices against %d on 10k, want within 4 KiB", large, small)
	}
}

// TestDistancesWithOverride: every per-query override returns identical
// distances and reports its engine in the stats.
func TestDistancesWithOverride(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(16, 16), 1, 60, 9)
	s, err := rs.NewSolver(g, rs.Options{Rho: 8, Engine: rs.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Dijkstra(g, 5)
	overrides := map[rs.Engine]string{
		rs.EngineAuto:       "sequential", // no override: solver's engine
		rs.EngineSequential: "sequential",
		rs.EngineParallel:   "parallel",
		rs.EngineFlat:       "flat",
		rs.EngineDelta:      "delta",
		rs.EngineRho:        "rho",
	}
	for eng, name := range overrides {
		dist, st, err := s.DistancesWith(5, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if st.Engine != name {
			t.Fatalf("override %v: Stats.Engine = %q, want %q", eng, st.Engine, name)
		}
		for v := range dist {
			if math.Float64bits(dist[v]) != math.Float64bits(want[v]) {
				t.Fatalf("override %v: dist[%d] = %v, want %v", eng, v, dist[v], want[v])
			}
		}
	}
	if _, _, err := s.DistancesWith(5, rs.Engine(42)); err == nil {
		t.Fatal("invalid engine override accepted")
	}
}

// TestOptionsValidation: negative knobs and out-of-range enums must be
// rejected with a clear error instead of slipping past setDefaults.
func TestOptionsValidation(t *testing.T) {
	g := rs.Grid2D(4, 4)
	bad := []rs.Options{
		{Rho: -1},
		{K: -3},
		{Engine: rs.Engine(99)},
		{Engine: rs.Engine(-2)},
		{Heuristic: rs.Heuristic(17)},
	}
	for i, opt := range bad {
		if _, err := rs.NewSolver(g, opt); err == nil {
			t.Fatalf("case %d: NewSolver accepted %+v", i, opt)
		}
		if _, err := rs.Preprocess(g, opt); err == nil {
			t.Fatalf("case %d: Preprocess accepted %+v", i, opt)
		}
	}
	if _, err := rs.NewSolver(g, rs.Options{}); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if _, err := rs.NewSolverPre(nil, rs.EngineAuto); err == nil {
		t.Fatal("nil preprocessed accepted")
	}
}

// TestSnapshotSolverRhoQuota: a snapshot-loaded solver must answer
// engine=rho queries with the persisted ρ as its quota, matching the
// step structure of an in-process solver preprocessed with the same ρ
// (regression: the snapshot path used to fall back to the default 32).
func TestSnapshotSolverRhoQuota(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(18, 18), 1, 80, 2)
	s1, err := rs.NewSolver(g, rs.Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rs.NewSnapshot(s1.Preprocessed(), rs.Options{Rho: 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rs.SolverFromSnapshot(snap, rs.EngineRho)
	if err != nil {
		t.Fatal(err)
	}
	_, st1, err := s1.DistancesWith(0, rs.EngineRho)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := s2.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Engine != "rho" {
		t.Fatalf("snapshot solver ran %q", st2.Engine)
	}
	if st1.Steps != st2.Steps {
		t.Fatalf("rho-quota lost through snapshot: %d steps in-process vs %d from snapshot", st1.Steps, st2.Steps)
	}
}

// TestPathWithEngines: point-to-point queries agree across engines.
// Every engine supports early termination — the settled-set-is-exact
// invariant is strategy-independent — so each engine's Route distance
// matches the EngineAuto route's.
func TestPathWithEngines(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(12, 12), 1, 30, 6)
	s, err := rs.NewSolver(g, rs.Options{Rho: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantPath, wantD, _, err := s.Route(0, 143, rs.EngineAuto, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPath) == 0 {
		t.Fatal("no default path")
	}
	for _, eng := range []rs.Engine{rs.EngineParallel, rs.EngineFlat, rs.EngineDelta, rs.EngineRho} {
		path, d, _, err := s.Route(0, 143, eng, true)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if d != wantD {
			t.Fatalf("%v: distance %v, want %v", eng, d, wantD)
		}
		if got, err := rs.PathLength(g, path); err != nil || got != wantD {
			t.Fatalf("%v: path length %v (%v), want %v", eng, got, err, wantD)
		}
	}
}
