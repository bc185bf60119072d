package core

import (
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
)

// The paper normalizes the lightest nonzero weight to 1, but the solvers
// themselves must stay correct on graphs with zero-weight edges (the
// step bounds degrade; distances may not).

func zeroWeightGraph() *graph.CSR {
	b := graph.NewBuilder(8)
	b.Add(0, 1, 0)
	b.Add(1, 2, 0)
	b.Add(2, 3, 5)
	b.Add(0, 4, 3)
	b.Add(4, 3, 0)
	b.Add(3, 5, 1)
	b.Add(5, 6, 0)
	b.Add(0, 7, 10)
	b.Add(6, 7, 0)
	return b.Build()
}

func TestSolversHandleZeroWeights(t *testing.T) {
	g := zeroWeightGraph()
	want := baseline.Dijkstra(g, 0)
	if err := check.VerifyDistances(g, 0, want); err != nil {
		t.Fatal(err)
	}
	for _, radii := range [][]float64{
		ZeroRadii(8),
		UniformRadii(8, 2),
		{0, 1, 0, 2, 1, 0, 3, 1},
	} {
		for _, s := range solvers() {
			dist, _, err := s.fn(g, radii, 0)
			if err != nil {
				t.Fatal(err)
			}
			if i := check.SameDistances(want, dist, 0); i >= 0 {
				t.Fatalf("%s: mismatch at %d: %v vs %v", s.name, i, dist[i], want[i])
			}
		}
	}
}

func TestZeroWeightCluster(t *testing.T) {
	// A clique connected entirely by zero-weight edges: all vertices at
	// distance 0, settled in one step with r=0 (same distance class).
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.Add(graph.V(i), graph.V(j), 0)
		}
	}
	b.Add(3, 4, 7)
	g := b.Build()
	dist, st, err := solveRef(g, ZeroRadii(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if dist[v] != 0 {
			t.Fatalf("dist[%d] = %v, want 0", v, dist[v])
		}
	}
	if dist[4] != 7 {
		t.Fatalf("dist[4] = %v", dist[4])
	}
	if st.Steps != 2 {
		t.Fatalf("steps = %d, want 2 (zero class, then 7 class)", st.Steps)
	}
}

func TestMixedZeroWeightsLargerGraph(t *testing.T) {
	// Random graph where ~20% of edges have weight zero.
	g := gen.WithUniformIntWeights(gen.RandomConnected(200, 600, 5), 1, 10, 6)
	g = graph.Reweight(g, func(u, v graph.V, w float64) float64 {
		if (u+v)%5 == 0 {
			return 0
		}
		return w
	})
	want := baseline.Dijkstra(g, 0)
	for _, s := range solvers() {
		dist, _, err := s.fn(g, UniformRadii(200, 3), 0)
		if err != nil {
			t.Fatal(err)
		}
		if i := check.SameDistances(want, dist, 0); i >= 0 {
			t.Fatalf("%s: mismatch at %d", s.name, i)
		}
	}
}
