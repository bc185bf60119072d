package core

import (
	"math"

	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// ShortestPathTree derives a parent array from a correct distance vector:
// parent[v] is a neighbor u with dist[u] + w(u,v) == dist[v], choosing
// the smallest (dist[u], u) among tight candidates so the tree is
// deterministic regardless of which engine produced the distances.
// parent[src] == src; unreachable vertices get -1. The derivation is a
// single parallel pass over the arcs.
func ShortestPathTree(g *graph.CSR, src graph.V, dist []float64) []graph.V {
	n := g.NumVertices()
	parent := make([]graph.V, n)
	parallel.For(n, func(vi int) {
		v := graph.V(vi)
		switch {
		case v == src:
			parent[v] = src
			return
		case math.IsInf(dist[v], 1):
			parent[v] = -1
			return
		}
		best := graph.V(-1)
		bestD := math.Inf(1)
		adj, ws := g.Neighbors(v)
		for i, u := range adj {
			if dist[u]+ws[i] == dist[v] {
				if dist[u] < bestD || (dist[u] == bestD && u < best) {
					best, bestD = u, dist[u]
				}
			}
		}
		parent[v] = best // -1 would mean dist was not a valid SSSP vector
	})
	return parent
}

// PathTo reconstructs the vertex sequence src..dst from a parent array.
// It returns nil when dst is unreachable.
func PathTo(parent []graph.V, dst graph.V) []graph.V {
	if dst < 0 || int(dst) >= len(parent) || parent[dst] == -1 {
		return nil
	}
	var rev []graph.V
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if parent[v] == v {
			break
		}
		if len(rev) > len(parent) {
			return nil // cycle: parent array is corrupt
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
