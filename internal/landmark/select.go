package landmark

import (
	"fmt"
	"math"

	"radiusstep/internal/graph"
)

// Strategy names a landmark-selection policy.
type Strategy int

const (
	// Farthest is farthest-point selection: start from the
	// highest-degree vertex, then repeatedly add the vertex maximizing
	// the distance to its nearest chosen landmark. Unreached vertices
	// (other components) count as infinitely far, so disconnected
	// graphs get one landmark per reached component before any
	// intra-component spreading. The classic ALT default: landmarks
	// end up on the periphery, where triangle bounds are tight.
	Farthest Strategy = iota
	// Degree is degree-weighted selection: the k highest-degree
	// vertices. Cheaper to select (no intermediate solves guide the
	// choice) and well-suited to scale-free graphs, where hubs lie on
	// many shortest paths.
	Degree
)

// String names the strategy as ParseStrategy accepts it.
func (s Strategy) String() string {
	switch s {
	case Farthest:
		return "farthest"
	case Degree:
		return "degree"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a strategy name to its Strategy value.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "farthest":
		return Farthest, nil
	case "degree":
		return Degree, nil
	default:
		return 0, fmt.Errorf("landmark: unknown strategy %q (want farthest|degree)", name)
	}
}

// SolveFunc computes a full single-source distance vector; Build uses
// it to solve from each chosen landmark. Callers pass a closure over
// their configured solver so this package needs no engine dependency.
type SolveFunc func(src graph.V) ([]float64, error)

// maxDegreeVertex returns the highest-degree vertex not already
// chosen, preferring lower ids on ties; ok=false when all are chosen.
func maxDegreeVertex(g *graph.CSR, chosen map[graph.V]bool) (graph.V, bool) {
	best, bestDeg, ok := graph.V(0), -1, false
	for v := 0; v < g.NumVertices(); v++ {
		if chosen[graph.V(v)] {
			continue
		}
		if d := g.Degree(graph.V(v)); d > bestDeg {
			best, bestDeg, ok = graph.V(v), d, true
		}
	}
	return best, ok
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

	switch strat {
	case Degree:
		for len(chosen) < k {
			v, ok := maxDegreeVertex(g, chosen)
			if !ok {
				break
			}
			if err := add(v); err != nil {
				return nil, err
			}
		}
	case Farthest:
		// minDist[v] = distance from v to its nearest chosen landmark,
		// folded in as each landmark's vector arrives.
		minDist := make([]float64, n)
		for i := range minDist {
			minDist[i] = math.Inf(1)
		}
		fold := func() {
			for v, d := range set.vecs[len(set.vecs)-1] {
				if d < minDist[v] {
					minDist[v] = d
				}
			}
		}
		seedV, ok := maxDegreeVertex(g, chosen)
		if !ok {
			break
		}
		if err := add(seedV); err != nil {
			return nil, err
		}
		fold()
		for len(chosen) < k {
			// Farthest vertex from the chosen set; +Inf (an unreached
			// component) always wins, breaking component ties — and all
			// ties — toward the lower id.
			next, best, ok := graph.V(0), -1.0, false
			for v := 0; v < n; v++ {
				if chosen[graph.V(v)] {
					continue
				}
				if d := minDist[v]; !ok || d > best {
					next, best, ok = graph.V(v), d, true
				}
			}
			if !ok {
				break
			}
			if err := add(next); err != nil {
				return nil, err
			}
			fold()
		}
	default:
		return nil, fmt.Errorf("landmark: unknown strategy %d", int(strat))
	}
	return set, nil
}
