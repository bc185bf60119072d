package baseline

import (
	"math"

	"radiusstep/internal/graph"
)

// BellmanFord computes SSSP distances with round-synchronous relaxation
// from the changed frontier, returning the distances and the number of
// rounds until fixpoint (including the final no-change round). It is the
// r(v) = ∞ degenerate case of radius-stepping: a single step of many
// substeps.
func BellmanFord(g *graph.CSR, src graph.V) ([]float64, int) {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	frontier := []graph.V{src}
	inNext := make([]bool, n)
	rounds := 0
	var snap []float64
	for len(frontier) > 0 {
		rounds++
		// Synchronous (Jacobi) rounds: sources relax with their
		// distance as of the round start, so the round count does not
		// depend on the order of the frontier.
		snap = snap[:0]
		for _, u := range frontier {
			snap = append(snap, dist[u])
		}
		var next []graph.V
		for fi, u := range frontier {
			adj, ws := g.Neighbors(u)
			du := snap[fi]
			for i, v := range adj {
				if nd := du + ws[i]; nd < dist[v] {
					dist[v] = nd
					if !inNext[v] {
						inNext[v] = true
						next = append(next, v)
					}
				}
			}
		}
		for _, v := range next {
			inNext[v] = false
		}
		frontier = next
	}
	// The last executed round produced no updates: it is the natural
	// "until no δ(v) was updated" check, already counted.
	return dist, rounds
}
