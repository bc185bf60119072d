// Quickstart: build a small weighted graph, preprocess it, run
// Radius-Stepping, and check the result against Dijkstra. This is the
// minimal end-to-end use of the public API, and it also prints the
// per-step trace to show the algorithm's anatomy (the paper's Figure 1:
// each step settles an annulus d_{i-1} < d(s,v) <= d_i chosen from the
// per-vertex radii).
package main

import (
	"context"
	"fmt"
	"log"

	rs "radiusstep"
)

func main() {
	// A weighted 8x8 grid with random integer weights in [1, 100].
	g := rs.WithUniformIntWeights(rs.Grid2D(8, 8), 1, 100, 7)
	fmt.Printf("graph: %d vertices, %d edges, L=%g\n",
		g.NumVertices(), g.NumEdges(), g.MaxWeight())

	// Preprocess into a (1, ρ)-graph with ρ = 8: every vertex gets
	// shortcut edges to its 8-ball and the radius r(v) = r_8(v).
	solver, err := rs.NewSolver(g, rs.Options{Rho: 8})
	if err != nil {
		log.Fatal(err)
	}
	pre := solver.Preprocessed()
	fmt.Printf("preprocess: +%d shortcut edges (graph now has %d)\n",
		pre.Added, pre.Graph.NumEdges())

	// Solve from vertex 0 with a trace: the timeline holds one record
	// per step.
	res, err := solver.Solve(context.Background(), rs.Query{Source: 0, Trace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstep   d_i      lead  settled  substeps")
	for _, st := range res.Timeline.StepList {
		fmt.Printf("%4d   %-7.4g  %-4d  %-7d  %d\n",
			st.Step, st.Di, st.Lead, st.Settled, st.Substeps)
	}
	fmt.Printf("\ntotal: %s\n", res.Stats)

	// Cross-check against Dijkstra and the optimality certificate.
	dist := res.Dist
	want := rs.Dijkstra(g, 0)
	for v := range want {
		if dist[v] != want[v] {
			log.Fatalf("mismatch at %d: %v vs %v", v, dist[v], want[v])
		}
	}
	if err := rs.VerifyDistances(g, 0, dist); err != nil {
		log.Fatal(err)
	}
	fmt.Println("distances verified against Dijkstra and the SSSP certificate")
	fmt.Printf("distance to far corner (63): %g\n", dist[63])
}
