package radiusstep_test

import (
	"fmt"
	"sync"
	"testing"

	rs "radiusstep"
)

// TestIntegrationMatrix drives the full pipeline — generate, preprocess,
// solve, verify — across graph families, options, and engines. Every
// result is checked against the SSSP optimality certificate (not just
// another implementation).
func TestIntegrationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is a few seconds")
	}
	graphs := map[string]*rs.Graph{
		"grid2d-w": rs.WithUniformIntWeights(rs.Grid2D(25, 25), 1, 10000, 1),
		"grid3d-w": rs.WithUniformIntWeights(rs.Grid3D(8, 8, 8), 1, 100, 2),
		"road-w": func() *rs.Graph {
			g, _ := rs.LargestComponent(rs.RoadNet(1500, 6, 3))
			return rs.WithUniformIntWeights(g, 1, 1000, 4)
		}(),
		"web-u":  rs.ScaleFree(800, 5, 5),
		"comb-u": rs.Comb(7),
		"er-w":   rs.WithUniformIntWeights(rs.RandomConnected(600, 1800, 6), 1, 50, 7),
	}
	options := []rs.Options{
		{Rho: 1},
		{Rho: 8},
		{Rho: 8, K: 1},
		{Rho: 32, K: 2, Heuristic: rs.HeuristicGreedy},
		{Rho: 32, K: 3, Heuristic: rs.HeuristicDP},
	}
	engines := []rs.Engine{rs.EngineSequential, rs.EngineParallel, rs.EngineFlat}
	for gname, g := range graphs {
		want := rs.Dijkstra(g, 0)
		for oi, opt := range options {
			pre, err := rs.Preprocess(g, opt)
			if err != nil {
				t.Fatalf("%s opt%d: %v", gname, oi, err)
			}
			for _, e := range engines {
				s, err := rs.NewSolverPre(pre, e)
				if err != nil {
					t.Fatal(err)
				}
				dist, st, err := s.Distances(0)
				if err != nil {
					t.Fatalf("%s opt%d %v: %v", gname, oi, e, err)
				}
				if err := rs.VerifyDistances(g, 0, dist); err != nil {
					t.Fatalf("%s opt%d %v: certificate: %v", gname, oi, e, err)
				}
				for i := range want {
					if dist[i] != want[i] {
						t.Fatalf("%s opt%d %v: dist[%d] = %v, want %v", gname, oi, e, i, dist[i], want[i])
					}
				}
				if k := opt.WithDefaults().K; st.MaxSubsteps > k+2 {
					t.Fatalf("%s opt%d %v: substeps %d exceed k+2", gname, oi, e, st.MaxSubsteps)
				}
			}
		}
	}
}

// TestIntegrationDeterminism: same inputs, same seeds — identical
// distances AND identical step/substep counts across repeated runs and
// across engines (the synchronous-substep design guarantees this).
func TestIntegrationDeterminism(t *testing.T) {
	build := func() (*rs.Graph, *rs.Preprocessed) {
		g := rs.WithUniformIntWeights(rs.ScaleFree(2000, 5, 11), 1, 10000, 12)
		pre, err := rs.Preprocess(g, rs.Options{Rho: 24, K: 2, Heuristic: rs.HeuristicDP})
		if err != nil {
			t.Fatal(err)
		}
		return g, pre
	}
	_, preA := build()
	_, preB := build()
	if preA.Added != preB.Added {
		t.Fatalf("preprocessing not deterministic: %d vs %d added", preA.Added, preB.Added)
	}
	if preA.Graph.NumEdges() != preB.Graph.NumEdges() {
		t.Fatal("augmented graphs differ")
	}
	type run struct {
		steps, substeps int
		d17             float64
	}
	results := map[string]run{}
	for _, e := range []rs.Engine{rs.EngineSequential, rs.EngineParallel, rs.EngineFlat} {
		for trial := 0; trial < 3; trial++ {
			s, err := rs.NewSolverPre(preA, e)
			if err != nil {
				t.Fatal(err)
			}
			dist, st, err := s.Distances(9)
			if err != nil {
				t.Fatal(err)
			}
			r := run{st.Steps, st.Substeps, dist[17]}
			key := "all"
			if prev, ok := results[key]; ok && prev != r {
				t.Fatalf("%v trial %d: %+v differs from %+v", e, trial, r, prev)
			}
			results[key] = r
		}
	}
}

// TestIntegrationConcurrentQueries: one Solver must serve many
// concurrent Distances calls correctly (each call owns its state).
func TestIntegrationConcurrentQueries(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(40, 40), 1, 500, 21)
	s, err := rs.NewSolver(g, rs.Options{Rho: 16})
	if err != nil {
		t.Fatal(err)
	}
	sources := []rs.Vertex{0, 1, 40, 99, 555, 1234, 1599}
	want := make(map[rs.Vertex][]float64, len(sources))
	for _, src := range sources {
		want[src] = rs.Dijkstra(g, src)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(sources)*4)
	for rep := 0; rep < 4; rep++ {
		for _, src := range sources {
			wg.Add(1)
			go func(src rs.Vertex) {
				defer wg.Done()
				dist, _, err := s.Distances(src)
				if err != nil {
					errs <- err
					return
				}
				for i := range dist {
					if dist[i] != want[src][i] {
						errs <- fmt.Errorf("src %d: mismatch at %d", src, i)
						return
					}
				}
			}(src)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIntegrationManySources mirrors the amortization story: preprocess
// once, query every 50th vertex, verify each.
func TestIntegrationManySources(t *testing.T) {
	g := rs.WithUniformIntWeights(rs.Grid2D(30, 30), 1, 100, 31)
	s, err := rs.NewSolver(g, rs.Options{Rho: 25})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v += 50 {
		dist, _, err := s.Distances(rs.Vertex(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.VerifyDistances(g, rs.Vertex(v), dist); err != nil {
			t.Fatalf("src %d: %v", v, err)
		}
	}
}
