package radiusstep_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	rs "radiusstep"
)

func solverOn(t *testing.T, g *rs.Graph, rho int) *rs.Solver {
	t.Helper()
	s, err := rs.NewSolver(g, rs.Options{Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// solveTo runs a point-to-point Solve from src to dst.
func solveTo(s *rs.Solver, src, dst rs.Vertex) (rs.Result, error) {
	return s.Solve(context.Background(), rs.Query{Source: src, Target: dst, HasTarget: true})
}

func TestDistanceEarlyTermination(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(60, 60), 1, 100, 5)
	s := solverOn(t, g, 16)
	full := rs.Dijkstra(g, 0)
	// Near target: should settle in far fewer steps than the full solve.
	near, err := solveTo(s, 0, 61) // adjacent diagonal area
	if err != nil {
		t.Fatal(err)
	}
	if near.Distance != full[61] {
		t.Fatalf("near distance %v, want %v", near.Distance, full[61])
	}
	_, stFull, err := s.Distances(0)
	if err != nil {
		t.Fatal(err)
	}
	if near.Stats.Steps >= stFull.Steps {
		t.Fatalf("early termination did not help: %d vs %d steps", near.Stats.Steps, stFull.Steps)
	}
	// Far target: still exact.
	far, err := solveTo(s, 0, 3599)
	if err != nil {
		t.Fatal(err)
	}
	if far.Distance != full[3599] {
		t.Fatalf("far distance %v, want %v", far.Distance, full[3599])
	}
}

func TestDistanceSourceAndUnreachable(t *testing.T) {
	b := rs.NewBuilder(4)
	b.Add(0, 1, 2)
	g := b.Build()
	s := solverOn(t, g, 2)
	if r, err := solveTo(s, 0, 0); err != nil || r.Distance != 0 {
		t.Fatalf("self distance = %v, %v", r.Distance, err)
	}
	r, err := solveTo(s, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.Distance, 1) || r.Path != nil {
		t.Fatalf("unreachable distance = %v, path %v", r.Distance, r.Path)
	}
	if _, err := solveTo(s, 0, 9); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestPathMatchesDijkstra(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.RandomConnected(300, 900, 6), 1, 30, 7)
	s := solverOn(t, g, 10)
	full := rs.Dijkstra(g, 5)
	targets := []rs.Vertex{0, 42, 123, 299}
	for _, dst := range targets {
		path, d, _, err := s.Route(5, dst, rs.EngineAuto, true)
		if err != nil {
			t.Fatal(err)
		}
		if d != full[dst] {
			t.Fatalf("dst %d: length %v, want %v", dst, d, full[dst])
		}
		if path[0] != 5 || path[len(path)-1] != dst {
			t.Fatalf("dst %d: endpoints wrong", dst)
		}
		// Paths are reconstructed over the ORIGINAL graph: every hop is
		// a real edge and the weights sum to the distance.
		length, err := rs.PathLength(g, path)
		if err != nil {
			t.Fatal(err)
		}
		if length != d {
			t.Fatalf("dst %d: edge sum %v != %v", dst, length, d)
		}
	}

	// A route must not depend on the engine EngineAuto resolves to: the
	// sequential and flat engines, unpruned and pruned by landmarks,
	// return the same distance and path, and at each pruning setting the
	// same steps and substeps. Stats.Pruned may differ: it counts pruned
	// candidates in the order each engine meets them.
	if _, err := s.BuildLandmarks(4, rs.LandmarksFarthest); err != nil {
		t.Fatal(err)
	}
	for _, dst := range targets {
		wantPath, _, _, err := s.Route(5, dst, rs.EngineAuto, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, prune := range []bool{false, true} {
			var seq rs.Stats
			for _, eng := range []rs.Engine{rs.EngineSequential, rs.EngineFlat} {
				path, d, st, err := s.Route(5, dst, eng, prune)
				if err != nil {
					t.Fatal(err)
				}
				if d != full[dst] || !reflect.DeepEqual(path, wantPath) {
					t.Fatalf("dst %d %s prune=%v: d=%v path %v, want d=%v path %v", dst, eng, prune, d, path, full[dst], wantPath)
				}
				if eng == rs.EngineSequential {
					seq = st
				} else if st.Steps != seq.Steps || st.Substeps != seq.Substeps {
					t.Fatalf("dst %d prune=%v: flat ran %d steps / %d substeps, sequential %d / %d",
						dst, prune, st.Steps, st.Substeps, seq.Steps, seq.Substeps)
				}
			}
		}
	}
}

func TestPathUnreachable(t *testing.T) {
	b := rs.NewBuilder(3)
	b.Add(0, 1, 1)
	g := b.Build()
	s := solverOn(t, g, 2)
	path, d, _, err := s.Route(0, 2, rs.EngineAuto, true)
	if err != nil {
		t.Fatal(err)
	}
	if path != nil || !math.IsInf(d, 1) {
		t.Fatalf("unreachable path = %v, %v", path, d)
	}
}

func TestPathLengthErrors(t *testing.T) {
	g := rs.Grid2D(3, 3)
	if _, err := rs.PathLength(g, []rs.Vertex{0, 8}); err == nil {
		t.Fatal("non-adjacent hop accepted")
	}
	if l, err := rs.PathLength(g, []rs.Vertex{4}); err != nil || l != 0 {
		t.Fatal("single-vertex path should be 0")
	}
}

// TestPreprocessedRoundTrip: a preprocessing result persisted in a
// snapshot reloads with its radii, original graph and parameters, and
// the reloaded solver answers queries identically.
func TestPreprocessedRoundTrip(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(15, 15), 1, 500, 8)
	opt := rs.Options{Rho: 10, K: 2, Heuristic: rs.HeuristicDP}
	pre, err := rs.Preprocess(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rs.NewSnapshot(pre, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := rs.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rho != 10 || got.K != 2 || got.Heuristic != "dp" {
		t.Fatalf("parameters changed in round trip: rho=%d k=%d heuristic=%q", got.Rho, got.K, got.Heuristic)
	}
	if got.Original == nil || got.Original.NumEdges() != g.NumEdges() {
		t.Fatal("original graph lost in round trip")
	}
	if !reflect.DeepEqual(got.Radii, pre.Radii) {
		t.Fatal("radii changed in round trip")
	}
	// The reloaded snapshot answers queries identically.
	want := rs.Dijkstra(g, 7)
	s, err := rs.SolverFromSnapshot(got, rs.EngineSequential)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := s.Distances(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("reloaded solver wrong at %d", i)
		}
	}
}
