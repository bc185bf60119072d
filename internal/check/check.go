// Package check provides verifiable certificates for shortest-path
// results. Rather than comparing two implementations (which could share a
// bug), VerifyDistances checks the mathematical optimality conditions of
// SSSP directly, so tests can use it as an independent oracle.
package check

import (
	"fmt"
	"math"

	"radiusstep/internal/graph"
)

// VerifyDistances checks that dist is exactly the shortest-path distance
// vector from src in g. For non-negative weights, dist is correct iff:
//
//  1. dist[src] == 0;
//  2. feasibility: dist[v] <= dist[u] + w for every arc (u, v, w);
//  3. tightness: every reached v != src has an arc (u, v, w) with
//     dist[v] == dist[u] + w;
//  4. unreached vertices (+Inf) have no reached neighbor.
//
// Together these force dist to be the unique fixed point of Bellman–Ford.
func VerifyDistances(g *graph.CSR, src graph.V, dist []float64) error {
	n := g.NumVertices()
	if len(dist) != n {
		return fmt.Errorf("check: dist has %d entries for %d vertices", len(dist), n)
	}
	if dist[src] != 0 {
		return fmt.Errorf("check: dist[src=%d] = %v, want 0", src, dist[src])
	}
	for u := 0; u < n; u++ {
		du := dist[u]
		adj, ws := g.Neighbors(graph.V(u))
		if math.IsInf(du, 1) {
			for _, v := range adj {
				if !math.IsInf(dist[v], 1) {
					return fmt.Errorf("check: unreachable %d adjacent to reached %d", u, v)
				}
			}
			continue
		}
		if du < 0 || math.IsNaN(du) {
			return fmt.Errorf("check: dist[%d] = %v out of range", u, du)
		}
		for i, v := range adj {
			if dist[v] > du+ws[i] {
				return fmt.Errorf("check: edge (%d,%d,w=%v) violated: dist[%d]=%v > %v",
					u, v, ws[i], v, dist[v], du+ws[i])
			}
		}
	}
	for v := 0; v < n; v++ {
		dv := dist[v]
		if graph.V(v) == src || math.IsInf(dv, 1) {
			continue
		}
		adj, ws := g.Neighbors(graph.V(v))
		tight := false
		for i, u := range adj {
			if dist[u]+ws[i] == dv {
				tight = true
				break
			}
		}
		if !tight {
			return fmt.Errorf("check: dist[%d]=%v has no tight incoming edge", v, dv)
		}
	}
	return nil
}

// SameDistances reports the first index where a and b differ by more than
// tol, or -1 when they match everywhere (treating +Inf as equal).
func SameDistances(a, b []float64, tol float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		ai, bi := a[i], b[i]
		if math.IsInf(ai, 1) && math.IsInf(bi, 1) {
			continue
		}
		if math.Abs(ai-bi) > tol {
			return i
		}
	}
	return -1
}
