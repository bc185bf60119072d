package radiusstep

import (
	"fmt"
	"math"

	"radiusstep/internal/graph"
)

// walkBack reconstructs the path src..dst by walking tight edges of a
// distance function backward from dst. All vertices on a shortest path
// to dst are settled by a target solve (their distances are <= d(dst)
// and exact — goal-directed pruning never skips a relaxation on such a
// path), and the original graph realizes the same metric as the
// augmented one, so a tight predecessor always exists in it and the
// route uses only real (non-shortcut) edges whenever the preprocessing
// result retains the original graph. Ties break toward the smaller distance,
// then the smaller vertex id, so the route is deterministic. dist is a
// function so a target solve's distances can be read in its workspace.
func (s *Solver) walkBack(dist func(Vertex) float64, src, dst Vertex) ([]Vertex, error) {
	walk := s.pre.Graph
	if s.pre.Original != nil {
		walk = s.pre.Original
	}
	path := []Vertex{dst}
	cur, dcur := dst, dist(dst)
	for cur != src {
		if len(path) > walk.NumVertices() {
			// Zero-weight cycles could make the tight-edge walk
			// oscillate; a simple path never exceeds n vertices.
			return nil, fmt.Errorf("radiusstep: path reconstruction cycled at %d (zero-weight cycle?)", cur)
		}
		adj, ws := walk.Neighbors(cur)
		next, dnext := Vertex(-1), 0.0
		for i, u := range adj {
			if du := dist(u); !math.IsInf(du, 1) && du+ws[i] == dcur && u != cur {
				if next == -1 || du < dnext || (du == dnext && u < next) {
					next, dnext = u, du
				}
			}
		}
		if next == -1 {
			return nil, fmt.Errorf("radiusstep: internal: no tight predecessor at %d", cur)
		}
		path = append(path, next)
		cur, dcur = next, dnext
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// PathLength sums the weights along a vertex path in g, returning an
// error if two consecutive vertices are not adjacent.
func PathLength(g *Graph, path []Vertex) (float64, error) {
	var total float64
	for i := 1; i < len(path); i++ {
		w, ok := graph.EdgeWeight(g, path[i-1], path[i])
		if !ok {
			return 0, fmt.Errorf("radiusstep: path edge (%d,%d) not in graph", path[i-1], path[i])
		}
		total += w
	}
	return total, nil
}
