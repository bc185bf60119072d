package radiusstep_test

import (
	"context"
	"errors"
	"testing"
	"time"

	rs "radiusstep"
)

// TestCancelProbeNilAllocGate is the cancellation seam's core promise,
// stated as a test: threading the cancel probe through the driver and
// every relax kernel must not cost probe-free solves anything. A
// context-bearing solve runs first (it allocates its probe and AfterFunc
// watcher freely), then plain solves on the same solver must still meet
// the same steady-state allocation budget the pre-cancellation
// implementation held. A Background context must also stay on the
// zero-extra-allocation path — Solve maps it to a nil probe.
// CI runs this test by name next to the other alloc gates.
func TestCancelProbeNilAllocGate(t *testing.T) {
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
		// A cancelable solve first: its probe must leave no residue in
		// the pooled workspaces the probe-free path reuses.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if _, err := s.Solve(ctx, rs.Query{Source: 0}); err != nil {
			t.Fatalf("engine %v: ctx solve: %v", tc.engine, err)
		}
		cancel()
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
			t.Fatalf("engine %v: probe-free solve allocates %v objects after cancellation landed, want <= %v",
				tc.engine, allocs, tc.budget)
		}
		// Solve with an un-endable context takes the nil-probe path:
		// same budget, no probe or watcher allocation.
		ctxAllocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Solve(context.Background(), rs.Query{Source: 7}); err != nil {
				t.Fatal(err)
			}
		})
		if ctxAllocs > tc.budget {
			t.Fatalf("engine %v: Background-ctx solve allocates %v objects, want <= %v",
				tc.engine, ctxAllocs, tc.budget)
		}
	}
}

// TestSolveCancellation runs a full, a traced and a target query under
// three contexts each: a live one answers like Distances (with a
// timeline only when traced), a canceled one returns ErrCanceled and an
// expired one ErrDeadline.
func TestSolveCancellation(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(40, 40), 1, 100, 5)
	s, err := rs.NewSolver(g, rs.Options{Rho: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()

	for _, tc := range []struct {
		name string
		q    rs.Query
	}{
		{"full", rs.Query{Source: 0}},
		{"traced", rs.Query{Source: 0, Trace: true}},
		{"target", rs.Query{Source: 0, Target: 100, HasTarget: true}},
	} {
		r, err := s.Solve(live, tc.q)
		if err != nil {
			t.Fatalf("%s: live ctx: %v", tc.name, err)
		}
		if tc.q.HasTarget {
			if r.Distance != want[100] || len(r.Path) == 0 {
				t.Fatalf("%s: live ctx: path=%d d=%v, want d=%v", tc.name, len(r.Path), r.Distance, want[100])
			}
		} else {
			for i := range want {
				if r.Dist[i] != want[i] {
					t.Fatalf("%s: dist[%d] = %v, want %v", tc.name, i, r.Dist[i], want[i])
				}
			}
		}
		if (r.Timeline != nil) != tc.q.Trace {
			t.Fatalf("%s: timeline = %v, want one only when traced", tc.name, r.Timeline)
		}
		if _, err := s.Solve(canceled, tc.q); !errors.Is(err, rs.ErrCanceled) {
			t.Fatalf("%s: canceled ctx: err = %v, want ErrCanceled", tc.name, err)
		}
		if _, err := s.Solve(expired, tc.q); !errors.Is(err, rs.ErrDeadline) {
			t.Fatalf("%s: expired ctx: err = %v, want ErrDeadline", tc.name, err)
		}
	}
}
