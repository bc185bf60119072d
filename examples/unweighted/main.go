// Unweighted: the §3.4 regime. On unit-weight graphs Radius-Stepping
// behaves like a BFS that leaps several levels per round: with r(v) =
// r_ρ(v) each round settles about ρ vertices, cutting the number of
// synchronous rounds (the depth) well below the graph's eccentricity.
package main

import (
	"fmt"
	"log"

	rs "radiusstep"
)

func main() {
	g := rs.Grid2D(300, 300) // unit weights, eccentricity ~598 from a corner
	src := rs.Vertex(0)

	_, bfsLevels := rs.BFSParallel(g, src)
	fmt.Printf("300x300 unit grid: parallel BFS needs %d synchronous levels\n", bfsLevels)

	fmt.Println("\nradius-stepping rounds as rho grows (flat engine, sec. 3.4):")
	fmt.Println("  rho   rounds  reduction")
	for _, rho := range []int{1, 4, 16, 64} {
		pre, err := rs.Preprocess(g, rs.Options{Rho: rho})
		if err != nil {
			log.Fatal(err)
		}
		solver, err := rs.NewSolverPre(pre, rs.EngineFlat)
		if err != nil {
			log.Fatal(err)
		}
		dist, st, err := solver.Distances(src)
		if err != nil {
			log.Fatal(err)
		}
		// Unit-grid distance is the Manhattan distance; the certificate
		// checks the whole vector.
		if dist[299] != 299 {
			log.Fatalf("rho=%d: wrong corner distance %v", rho, dist[299])
		}
		if err := rs.VerifyDistances(g, src, dist); err != nil {
			log.Fatalf("rho=%d: %v", rho, err)
		}
		fmt.Printf("  %-4d  %-6d  %.1fx\n", rho, st.Steps, float64(bfsLevels)/float64(st.Steps))
	}

	fmt.Println("\n(each round is one parallel phase: fewer rounds = shorter critical path)")
}
