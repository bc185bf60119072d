package radiusstep_test

import (
	"math"
	"runtime"
	"testing"

	rs "radiusstep"
)

// TestDistancesSteadyStateAllocs is the allocation-regression gate: on
// the sequential engine with warm workspaces, a Distances call
// allocates O(1) — essentially just the returned vector. The graph is
// kept under the parallel primitives' sequential-fallback grain so no
// goroutines (which allocate) are spawned. CI runs this test by name.
func TestDistancesSteadyStateAllocs(t *testing.T) {
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

// TestEngineSteadyStateAllocs extends the allocation gate to every
// engine: with warm workspaces, a Distances call on any of the five
// allocates at most 4 objects — the returned vector and runtime slack.
// The frontier's runs, staging batches and rank-query scratch (parallel,
// rho) and the flat fringe (flat, delta) all live in the workspace, and
// the flat fringe's target scan runs on the caller. Before the frontier
// substrate landed, the parallel engine allocated one treap node per
// insert (~500k allocs per 50k-vertex solve); before the target scan
// became a plain loop, flat allocated 33 objects per solve here and
// delta 69. testing.AllocsPerRun counts at GOMAXPROCS 1, where nothing
// forks; TestFlatForkedSolveAllocs counts forked solves. CI runs this
// test by name.
func TestEngineSteadyStateAllocs(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 100, 3)
	for _, engine := range []rs.Engine{rs.EngineSequential, rs.EngineParallel, rs.EngineFlat, rs.EngineDelta, rs.EngineRho} {
		s, err := rs.NewSolver(g, rs.Options{Rho: 8, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := s.Distances(rs.Vertex(i)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, st, err := s.Distances(7); err != nil || st.Engine != engine.String() {
				t.Fatalf("engine %v: stats %v err %v", engine, st.Engine, err)
			}
		})
		if allocs > 4 {
			t.Fatalf("steady-state %v Distances allocates %v objects per solve, want <= 4", engine, allocs)
		}
	}
}

// TestFlatForkedSolveAllocs is the allocation gate of the served engine
// above one proc. testing.AllocsPerRun pins GOMAXPROCS to 1, so the
// gates above never see a substep fork; this one counts MemStats over
// 40 warm flat solves at GOMAXPROCS 1 and at 2. The rmat graph packs to
// 18,476 vertices and 353,912 arcs at k = 4, and its widest substeps
// clear the relax fork gate, so at 2 procs they fork, and the relax is
// the only place a flat solve forks. Over 150 runs on a 2-vCPU host a
// solve allocated 1.1 objects at 1 proc and 4.3–4.6 at 2, and at most
// 11,119 bytes beyond its 8n-byte vector (7,840 of them the vector's
// rounding up to whole pages); the bounds are about twice the counts
// and the vector plus 16 KiB. CI runs this test by name.
func TestFlatForkedSolveAllocs(t *testing.T) {
	g, err := rs.GenerateByName("rmat", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rs.NewSolver(rs.WithUniformIntWeights(g, 1, 10000, 2), rs.Options{Engine: rs.EngineFlat})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Preprocessed().Graph.NumVertices()
	const solves = 40
	solve := func(i int) {
		if _, st, err := s.Distances(rs.Vertex(i * 97 % n)); err != nil || st.Engine != "flat" {
			t.Fatalf("solve from %d: engine %q, err %v", i*97%n, st.Engine, err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs   int
		objects float64
	}{
		{1, 4},
		{2, 10},
	} {
		runtime.GOMAXPROCS(tc.procs)
		_, _, tl, err := s.DistancesTraced(0, rs.EngineFlat)
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for _, sub := range tl.SubstepList {
			widest = max(widest, sub.Workers)
		}
		if widest != tc.procs {
			t.Fatalf("GOMAXPROCS=%d: the widest substep ran on %d workers, want %d", tc.procs, widest, tc.procs)
		}
		for i := 0; i < 3; i++ {
			solve(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < solves; i++ {
			solve(i)
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / solves
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / solves
		t.Logf("GOMAXPROCS=%d: %.1f objects and %.0f bytes per solve (vector %d bytes)", tc.procs, objects, bytes, 8*n)
		if objects > tc.objects {
			t.Errorf("GOMAXPROCS=%d: a warm flat solve allocates %.1f objects, want <= %v", tc.procs, objects, tc.objects)
		}
		if limit := float64(8*n + 16<<10); bytes > limit {
			t.Errorf("GOMAXPROCS=%d: a warm flat solve allocates %.0f bytes, want <= %.0f (8n + 16 KiB)", tc.procs, bytes, limit)
		}
	}
}

// TestRouteBytesConstant is the route allocation gate: on a warmed
// solver with landmarks, each of 101 pruned Routes explores a ball
// around its endpoints and allocates about the same bytes on a
// 10k-vertex and a 40k-vertex grid — its path, not an n-vector. CI runs
// this test by name.
func TestRouteBytesConstant(t *testing.T) {
	// One proc, as testing.AllocsPerRun does: with a second P idle, the
	// runtime may start a thread when ReadMemStats restarts the world,
	// and that thread's runtime objects (about 5 KB) would be charged to
	// whichever route was being counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		var largest uint64
		var ms runtime.MemStats
		for i := 0; i < 101; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			route()
			runtime.ReadMemStats(&ms)
			largest = max(largest, ms.TotalAlloc-before)
		}
		return largest
	}
	small, large := perRoute(100), perRoute(200)
	t.Logf("bytes allocated by the largest route: %d on 10k vertices, %d on 40k vertices", small, large)
	if large > small+4<<10 {
		t.Fatalf("the largest route allocates %d bytes on 40k vertices against %d on 10k, want within 4 KiB", large, small)
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
