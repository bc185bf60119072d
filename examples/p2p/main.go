// P2P: point-to-point routing with early termination. A solver built
// once serves route queries that stop as soon as the destination is
// settled — Theorem 3.1 guarantees settled distances are exact — so a
// nearby destination costs a handful of rounds instead of a full solve.
package main

import (
	"context"
	"fmt"
	"log"

	rs "radiusstep"
)

func main() {
	raw, _ := rs.LargestComponent(rs.RoadNet(30000, 6, 123))
	g := rs.WithUniformIntWeights(raw, 1, 10000, 124)
	fmt.Printf("road network: n=%d m=%d\n", g.NumVertices(), g.NumEdges())

	solver, err := rs.NewSolver(g, rs.Options{Rho: 48})
	if err != nil {
		log.Fatal(err)
	}

	src := rs.Vertex(10)
	full := rs.Dijkstra(g, src)
	_, stFull, err := solver.Distances(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full solve from %d: %d rounds\n\n", src, stFull.Steps)

	fmt.Println("dst      distance  rounds  path-hops")
	for _, dst := range []rs.Vertex{11, 500, 5000, 25000} {
		if int(dst) >= g.NumVertices() {
			continue
		}
		r, err := solver.Solve(context.Background(), rs.Query{Source: src, Target: dst, HasTarget: true})
		if err != nil {
			log.Fatal(err)
		}
		if r.Distance != full[dst] {
			log.Fatalf("dst %d: got %v, Dijkstra says %v", dst, r.Distance, full[dst])
		}
		if pd, err := rs.PathLength(g, r.Path); err != nil || pd != r.Distance {
			log.Fatalf("dst %d: path length %v (%v) != distance %v", dst, pd, err, r.Distance)
		}
		fmt.Printf("%-7d  %-8.6g  %-6d  %d\n", dst, r.Distance, r.Stats.Steps, len(r.Path)-1)
	}
	fmt.Println("\n(rounds grow with distance: the solve stops at the target's annulus)")
}
