package radiusstep_test

import (
	"fmt"

	rs "radiusstep"
)

// The basic workflow: build a graph, preprocess once, query distances.
func ExampleNewSolver() {
	// A 4-vertex path: 0 -1- 1 -2- 2 -3- 3.
	b := rs.NewBuilder(4)
	b.Add(0, 1, 1)
	b.Add(1, 2, 2)
	b.Add(2, 3, 3)
	g := b.Build()

	solver, err := rs.NewSolver(g, rs.Options{Rho: 2})
	if err != nil {
		panic(err)
	}
	dist, _, err := solver.Distances(0)
	if err != nil {
		panic(err)
	}
	fmt.Println(dist)
	// Output: [0 1 3 6]
}

// Point-to-point queries stop as soon as the destination settles.
func ExampleSolver_Route() {
	g := rs.Grid2D(3, 3) // unit-weight 3x3 grid, vertex = row*3+col
	solver, err := rs.NewSolver(g, rs.Options{Rho: 4})
	if err != nil {
		panic(err)
	}
	path, d, _, err := solver.Route(0, 8, rs.EngineAuto, true)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(path)-1, d)
	// Output: 4 4
}

// Dijkstra is the sequential baseline; VerifyDistances is an
// independent optimality certificate.
func ExampleDijkstra() {
	g := rs.WithUniformIntWeights(rs.Grid2D(10, 10), 1, 100, 42)
	dist := rs.Dijkstra(g, 0)
	if err := rs.VerifyDistances(g, 0, dist); err != nil {
		panic(err)
	}
	fmt.Println("verified")
	// Output: verified
}

// Preprocessing can be persisted and reloaded, paying the Θ(nρ²) phase
// once across processes.
func ExamplePreprocess() {
	g := rs.Grid2D(5, 5)
	pre, err := rs.Preprocess(g, rs.Options{Rho: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(pre.Radii), pre.Graph.NumVertices())
	// Output: 25 25
}
