package radiusstep

import (
	"fmt"
	"io"
	"math"

	"radiusstep/internal/core"
	"radiusstep/internal/graph"
)

// Tree computes the shortest-path distances from src together with a
// deterministic shortest-path tree (parent[src] == src, -1 for
// unreachable vertices). The tree derivation is one parallel pass over
// the arcs and is identical for every engine.
func (s *Solver) Tree(src Vertex) (dist []float64, parent []Vertex, stats Stats, err error) {
	dist, stats, err = s.Distances(src)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	parent = core.ShortestPathTree(s.pre.Graph, src, dist)
	return dist, parent, stats, nil
}

// Path returns the shortest path src..dst as a vertex sequence and its
// length, or (nil, +Inf) when unreachable. It runs an early-terminated
// solve on the EngineAuto choice and walks tight edges back from dst.
// When the preprocessing bundle retains the original graph the walk uses
// only real (non-shortcut) edges, so the route is directly usable;
// otherwise shortcut edges (whose weights equal exact distances) may
// appear. When the solver has landmarks the solve is goal-directed;
// Route takes a per-query engine and the pruning opt-out.
func (s *Solver) Path(src, dst Vertex) ([]Vertex, float64, error) {
	path, d, _, err := s.Route(src, dst, EngineAuto, true)
	return path, d, err
}

// walkBack reconstructs the path src..dst by walking tight edges of a
// distance vector backward from dst. All vertices on a shortest path
// to dst are settled by a target solve (their distances are <= d(dst)
// and exact — goal-directed pruning never skips a relaxation on such a
// path), and the original graph realizes the same metric as the
// augmented one, so a tight predecessor always exists in it and the
// route uses only real (non-shortcut) edges whenever the bundle
// retains the original graph. Ties break toward the smaller distance,
// then the smaller vertex id, so the route is deterministic.
func (s *Solver) walkBack(dist []float64, src, dst Vertex) ([]Vertex, error) {
	walk := s.pre.Graph
	if s.pre.Original != nil {
		walk = s.pre.Original
	}
	path := []Vertex{dst}
	cur := dst
	for cur != src {
		if len(path) > walk.NumVertices() {
			// Zero-weight cycles could make the tight-edge walk
			// oscillate; a simple path never exceeds n vertices.
			return nil, fmt.Errorf("radiusstep: path reconstruction cycled at %d (zero-weight cycle?)", cur)
		}
		adj, ws := walk.Neighbors(cur)
		next := Vertex(-1)
		for i, u := range adj {
			if !math.IsInf(dist[u], 1) && dist[u]+ws[i] == dist[cur] && u != cur {
				if next == -1 || dist[u] < dist[next] || (dist[u] == dist[next] && u < next) {
					next = u
				}
			}
		}
		if next == -1 {
			return nil, fmt.Errorf("radiusstep: internal: no tight predecessor at %d", cur)
		}
		path = append(path, next)
		cur = next
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// PathTo reconstructs the vertex sequence from a Tree parent array.
// It returns nil when dst is unreachable.
func PathTo(parent []Vertex, dst Vertex) []Vertex {
	return core.PathTo(parent, dst)
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

// --- preprocessing persistence -------------------------------------------

// preMagic identifies the preprocessed-bundle format.
const preMagic = uint64(0x5052455052503031) // "PREPRP01"

// WritePreprocessed persists a preprocessing result (augmented graph,
// original graph when present, radii, counters) so the Θ(nρ²) phase can
// be paid once and reloaded across processes. The layout is six uint64
// header words (magic, n, added, visited, edges scanned, original-graph
// flag), the radii, then the augmented and the optional original graph
// in the binary CSR format.
func WritePreprocessed(w io.Writer, pre *Preprocessed) error {
	if pre == nil || pre.Graph == nil || len(pre.Radii) != pre.Graph.NumVertices() {
		return fmt.Errorf("radiusstep: invalid preprocessed bundle")
	}
	hasOrig := uint64(0)
	if pre.Original != nil {
		hasOrig = 1
	}
	e := graph.NewEncoder(w)
	for _, h := range []uint64{preMagic, uint64(len(pre.Radii)), uint64(pre.Added), uint64(pre.Visited), uint64(pre.EdgesScanned), hasOrig} {
		e.Uint64(h)
	}
	e.Float64s(pre.Radii)
	e.BinaryCSR(pre.Graph)
	if pre.Original != nil {
		e.BinaryCSR(pre.Original)
	}
	return e.Err()
}

// ReadPreprocessed loads a bundle written by WritePreprocessed. Like a
// snapshot, a corrupt bundle fails here, never at query time: the radii
// must be finite and non-negative and both graphs pass the binary CSR
// format's structural checks.
func ReadPreprocessed(r io.Reader) (*Preprocessed, error) {
	d := graph.NewDecoder(r)
	var head [6]uint64
	for i := range head {
		head[i] = d.Uint64()
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("radiusstep: preprocessed header: %w", err)
	}
	if head[0] != preMagic {
		return nil, fmt.Errorf("radiusstep: bad preprocessed magic %#x", head[0])
	}
	n := head[1]
	if n > 1<<34 {
		return nil, fmt.Errorf("radiusstep: implausible vertex count %d", n)
	}
	if head[5] > 1 {
		return nil, fmt.Errorf("radiusstep: corrupt original-graph flag %d", head[5])
	}
	pre := &Preprocessed{
		Added:        int64(head[2]),
		Visited:      int64(head[3]),
		EdgesScanned: int64(head[4]),
	}
	var err error
	if pre.Radii, err = d.Radii(n); err != nil {
		return nil, fmt.Errorf("radiusstep: preprocessed radii: %w", err)
	}
	if pre.Graph, err = d.BinaryCSR(); err != nil {
		return nil, fmt.Errorf("radiusstep: preprocessed graph: %w", err)
	}
	if pre.Graph.NumVertices() != int(n) {
		return nil, fmt.Errorf("radiusstep: radii/graph size mismatch")
	}
	if head[5] == 1 {
		if pre.Original, err = d.BinaryCSR(); err != nil {
			return nil, fmt.Errorf("radiusstep: preprocessed original graph: %w", err)
		}
		if pre.Original.NumVertices() != int(n) {
			return nil, fmt.Errorf("radiusstep: original graph size mismatch")
		}
	}
	return pre, nil
}
