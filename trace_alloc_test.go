package radiusstep_test

import (
	"testing"

	rs "radiusstep"
)

// TestTracingDisabledAllocGate is the observability layer's core
// promise, stated as a test: threading the trace recorder through the
// stepping driver must not cost untraced solves anything. A traced
// solve runs first (it allocates freely — timeline slices, clock
// reads), then untraced solves on the same solver must still meet the
// same steady-state allocation budget the pre-tracing implementation
// held. CI runs this test by name next to the other alloc gates.
func TestTracingDisabledAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	g := rs.WithUniformIntWeights(rs.Grid2D(20, 20), 1, 100, 3)
	for _, tc := range []struct {
		engine rs.Engine
		budget float64
	}{
		{rs.EngineSequential, 4},
		{rs.EngineParallel, 8},
		{rs.EngineRho, 8},
	} {
		s, err := rs.NewSolver(g, rs.Options{Rho: 8, Engine: tc.engine})
		if err != nil {
			t.Fatal(err)
		}
		// A traced solve first: its recorder and timeline must leave no
		// residue in the pooled workspaces the untraced path reuses.
		if _, _, tl, err := s.DistancesTraced(0, rs.EngineAuto); err != nil || tl == nil || tl.Steps == 0 {
			t.Fatalf("engine %v: traced solve tl=%v err=%v", tc.engine, tl, err)
		}
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
		if allocs > tc.budget {
			t.Fatalf("engine %v: untraced solve allocates %v objects after tracing landed, want <= %v",
				tc.engine, allocs, tc.budget)
		}
	}
}
