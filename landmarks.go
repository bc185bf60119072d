package radiusstep

import (
	"context"
	"fmt"
	"math"

	"radiusstep/internal/landmark"
)

// LandmarkStrategy selects how BuildLandmarks picks landmark vertices.
type LandmarkStrategy = landmark.Strategy

// LandmarksFarthest is farthest-point selection, the only strategy:
// each landmark maximizes the distance to its nearest predecessor,
// spreading the set to the periphery (and across components).
const LandmarksFarthest = landmark.Farthest

// MaxLandmarks caps a solver's landmark set. A pruned query picks its
// two active landmarks in one O(k) pass at query start; the bound it
// prunes with reads only those two, whatever k is.
const MaxLandmarks = landmark.MaxLandmarks

// BuildLandmarks selects k landmarks with the given strategy and
// solves a full distance vector from each, replacing any existing set.
// It returns the number of landmarks built (less than k only when the
// graph has fewer vertices). The solves run on the solver's configured
// engine; the Θ(k) full solves are the price that later Route queries
// amortize. Safe to call concurrently with queries: in-flight solves
// keep the set they loaded.
func (s *Solver) BuildLandmarks(k int, strat LandmarkStrategy) (int, error) {
	s.lmMu.Lock()
	defer s.lmMu.Unlock()
	set, err := landmark.Build(s.pre.Graph, k, strat, func(src Vertex) ([]float64, error) {
		d, _, err := s.DistancesWith(src, EngineAuto)
		return d, err
	})
	if err != nil {
		return 0, err
	}
	s.lm.Store(set)
	return set.K(), nil
}

// Landmarks reports the number of landmarks currently serving Route
// queries.
func (s *Solver) Landmarks() int { return s.lm.Load().K() }

// LandmarkData exports the landmark set for persistence: the vertex
// ids and a landmark-major matrix (rows[i*n : (i+1)*n] is landmark i's
// full distance vector), the layout Snapshot carries. Both are nil
// when no landmarks exist.
func (s *Solver) LandmarkData() ([]Vertex, []float64) {
	set := s.lm.Load()
	if set.K() == 0 {
		return nil, nil
	}
	return set.Vertices(), set.Rows()
}

// SetLandmarkData restores a landmark set exported by LandmarkData
// (SolverFromSnapshot calls this for snapshots packed with
// graphpack -landmarks), replacing any existing set. Passing no
// vertices clears the set.
func (s *Solver) SetLandmarkData(verts []Vertex, rows []float64) error {
	s.lmMu.Lock()
	defer s.lmMu.Unlock()
	set, err := landmark.FromRows(s.pre.Graph.NumVertices(), verts, rows)
	if err != nil {
		return err
	}
	s.lm.Store(set)
	return nil
}

// Route answers a point-to-point query: the shortest path src..dst as
// a vertex sequence, its length, and the solve's round statistics. It
// returns (nil, +Inf) when dst is unreachable. The solve stops as soon
// as dst settles, and the path walks real (non-shortcut) edges when
// the preprocessing result retains the original graph (see walkBack).
// engine overrides the solve engine per query (EngineAuto resolves as
// for a full solve), and prune makes the solve goal-directed when the
// solver has landmarks (see Query.Prune; without landmarks it is a
// no-op).
func (s *Solver) Route(src, dst Vertex, engine Engine, prune bool) ([]Vertex, float64, Stats, error) {
	r, err := s.Solve(context.TODO(), Query{Source: src, Target: dst, HasTarget: true, Engine: engine, Prune: prune})
	return r.Path, r.Distance, r.Stats, err
}

// PathFromDistances reconstructs the shortest path src..dst from an
// already-computed exact distance vector for src (a full solve's
// output — the serving daemon uses this to answer route queries from
// its distance cache without a solve). It returns (nil, +Inf, nil)
// when dst is unreachable. The vector must be src's full distance
// vector on this solver's graph; a vector from another source or graph
// yields an error (no tight predecessor), not a wrong path.
func (s *Solver) PathFromDistances(src, dst Vertex, dist []float64) ([]Vertex, float64, error) {
	n := s.pre.Graph.NumVertices()
	if len(dist) != n {
		return nil, 0, fmt.Errorf("radiusstep: %d distances for %d vertices", len(dist), n)
	}
	if src < 0 || int(src) >= n {
		return nil, 0, fmt.Errorf("radiusstep: source %d out of range [0,%d)", src, n)
	}
	if dst < 0 || int(dst) >= n {
		return nil, 0, fmt.Errorf("radiusstep: target %d out of range [0,%d)", dst, n)
	}
	if dist[src] != 0 {
		return nil, 0, fmt.Errorf("radiusstep: dist[%d] = %v, want 0 (vector not for this source?)", src, dist[src])
	}
	d := dist[dst]
	if math.IsInf(d, 1) {
		return nil, d, nil
	}
	path, err := s.walkBack(func(v Vertex) float64 { return dist[v] }, src, dst)
	if err != nil {
		return nil, 0, err
	}
	return path, d, nil
}
