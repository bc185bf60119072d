package landmark

import (
	"fmt"
	"math"

	"radiusstep/internal/graph"
)

// Strategy names a landmark-selection policy.
type Strategy int

// Farthest is farthest-point selection: start from the highest-degree
// vertex, then repeatedly add the vertex maximizing the distance to its
// nearest chosen landmark. Unreached vertices (other components) count
// as infinitely far, so disconnected graphs get one landmark per
// reached component before any intra-component spreading. The classic
// ALT default: landmarks end up on the periphery, where triangle bounds
// are tight.
const Farthest Strategy = 0

// SolveFunc computes a full single-source distance vector; Build uses
// it to solve from each chosen landmark. Callers pass a closure over
// their configured solver so this package needs no engine dependency.
type SolveFunc func(src graph.V) ([]float64, error)

// maxDegreeVertex returns the highest-degree vertex of a graph with at
// least one vertex, preferring lower ids on ties.
func maxDegreeVertex(g *graph.CSR) graph.V {
	best, bestDeg := graph.V(0), -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(graph.V(v)); d > bestDeg {
			best, bestDeg = graph.V(v), d
		}
	}
	return best
}

// Build selects up to k landmarks from g with the given strategy,
// solves a full distance vector from each via solve, and returns the
// resulting Set. Fewer than k landmarks come back when the graph is
// smaller than k. Selection is deterministic: ties break toward lower
// vertex ids, so the same graph always yields the same landmarks.
func Build(g *graph.CSR, k int, strat Strategy, solve SolveFunc) (*Set, error) {
	n := g.NumVertices()
	if k < 0 {
		return nil, fmt.Errorf("landmark: negative landmark count %d", k)
	}
	if k > MaxLandmarks {
		return nil, fmt.Errorf("landmark: %d landmarks exceeds the maximum %d", k, MaxLandmarks)
	}
	if strat != Farthest {
		return nil, fmt.Errorf("landmark: unknown strategy %d", int(strat))
	}
	if k > n {
		k = n
	}
	set, err := New(n)
	if err != nil {
		return nil, err
	}
	if k == 0 || n == 0 {
		return set, nil
	}

	chosen := make(map[graph.V]bool, k)
	add := func(v graph.V) error {
		dist, err := solve(v)
		if err != nil {
			return fmt.Errorf("landmark: solving from %d: %w", v, err)
		}
		if set, err = set.With(v, dist); err != nil {
			return err
		}
		chosen[v] = true
		return nil
	}

	// minDist[v] = distance from v to its nearest chosen landmark,
	// folded in as each landmark's vector arrives.
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for next := maxDegreeVertex(g); ; {
		if err := add(next); err != nil {
			return nil, err
		}
		for v, d := range set.vecs[len(set.vecs)-1] {
			if d < minDist[v] {
				minDist[v] = d
			}
		}
		if len(chosen) == k {
			break
		}
		// Farthest vertex from the chosen set; +Inf (an unreached
		// component) always wins, breaking component ties — and all
		// ties — toward the lower id.
		best := -1.0
		for v := 0; v < n; v++ {
			if d := minDist[v]; !chosen[graph.V(v)] && d > best {
				next, best = graph.V(v), d
			}
		}
	}
	return set, nil
}
