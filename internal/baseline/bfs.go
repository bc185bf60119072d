package baseline

import (
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// BFS runs a sequential breadth-first search from src, returning hop
// distances (-1 for unreachable) and the number of rounds that discovered
// at least one vertex — the eccentricity of src, which is the quantity
// the paper's Table 4 ρ=1 rows report (radius-stepping with r=0 settles
// one BFS level per step, with the source pre-settled).
func BFS(g *graph.CSR, src graph.V) (dist []int32, levels int) {
	n := g.NumVertices()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []graph.V{src}
	for len(frontier) > 0 {
		var next []graph.V
		for _, u := range frontier {
			adj, _ := g.Neighbors(u)
			for _, v := range adj {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			levels++
		}
		frontier = next
	}
	return dist, levels
}

// frontierGrain is the batched-claim size for per-vertex frontier loops
// in the parallel baselines: enough vertices per atomic claim that
// scheduling vanishes next to the relaxation work, small enough that
// skewed degree distributions still load-balance.
const frontierGrain = 64

// BFSParallel is the level-synchronous parallel BFS: each level expands
// the frontier concurrently, claiming each discovered vertex exactly once.
func BFSParallel(g *graph.CSR, src graph.V) (dist []int32, levels int) {
	n := g.NumVertices()
	dist = make([]int32, n)
	parallel.Fill(dist, -1)
	dist[src] = 0
	visited := make([]uint32, n)
	visited[src] = 1
	frontier := []graph.V{src}
	p := parallel.Procs()
	depth := int32(0)
	for len(frontier) > 0 {
		depth++
		level := depth // level index being discovered this round
		parts := make([][]graph.V, p)
		parallel.WorkersGrain(len(frontier), frontierGrain, func(w int, claim func() (int, int, bool)) {
			var local []graph.V
			for {
				lo, hi, ok := claim()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					adj, _ := g.Neighbors(frontier[i])
					for _, v := range adj {
						if parallel.Claim(&visited[v], 1) {
							dist[v] = level
							local = append(local, v)
						}
					}
				}
			}
			parts[w] = local
		})
		var next []graph.V
		for _, part := range parts {
			next = append(next, part...)
		}
		if len(next) > 0 {
			levels++
		}
		frontier = next
	}
	return dist, levels
}
