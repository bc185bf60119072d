package graph

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalid is wrapped by all validation failures.
var ErrInvalid = errors.New("graph: invalid")

// Validate checks the structural invariants of a CSR: monotone offsets,
// in-range targets, non-negative weights, no self-loops, sorted adjacency
// without duplicate neighbors, and full symmetry (every arc has a reverse
// arc of equal weight). It returns nil when the graph is well-formed.
func Validate(g *CSR) error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("%w: negative vertex count", ErrInvalid)
	}
	if len(g.Off) != n+1 || g.Off[0] != 0 || int(g.Off[n]) != len(g.Adj) || len(g.Adj) != len(g.W) {
		return fmt.Errorf("%w: inconsistent array lengths", ErrInvalid)
	}
	for u := 0; u < n; u++ {
		if g.Off[u] > g.Off[u+1] {
			return fmt.Errorf("%w: offsets not monotone at %d", ErrInvalid, u)
		}
		adj, ws := g.Neighbors(V(u))
		for i, v := range adj {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("%w: arc (%d,%d) out of range", ErrInvalid, u, v)
			}
			if v == V(u) {
				return fmt.Errorf("%w: self-loop at %d", ErrInvalid, u)
			}
			if ws[i] < 0 {
				return fmt.Errorf("%w: negative weight on (%d,%d)", ErrInvalid, u, v)
			}
			if i > 0 && adj[i-1] >= v {
				return fmt.Errorf("%w: adjacency of %d not strictly sorted", ErrInvalid, u)
			}
		}
	}
	// Symmetry: for every arc (u, v, w) the reverse must exist with the
	// same weight. Adjacency lists are sorted, so binary search suffices.
	for u := 0; u < n; u++ {
		adj, ws := g.Neighbors(V(u))
		for i, v := range adj {
			w, ok := findArc(g, v, V(u))
			if !ok {
				return fmt.Errorf("%w: missing reverse arc for (%d,%d)", ErrInvalid, u, v)
			}
			if w != ws[i] {
				return fmt.Errorf("%w: asymmetric weight on (%d,%d): %v vs %v", ErrInvalid, u, v, ws[i], w)
			}
		}
	}
	return nil
}

// CheckRadii is the rule every radius vector meets before a solve uses
// it: each radius finite and non-negative. The snapshot reader, Solver
// construction and the entry points that take caller radii all call it.
// A negative or NaN radius can make a solve loop forever, and +Inf ones
// return wrong distances.
func CheckRadii(radii []float64) error {
	for v, r := range radii {
		if !(r >= 0 && r <= math.MaxFloat64) {
			return fmt.Errorf("invalid radius %v at vertex %d", r, v)
		}
	}
	return nil
}

// findArc locates the arc (u, v) by binary search over u's sorted
// adjacency, returning its weight.
func findArc(g *CSR, u, v V) (float64, bool) {
	adj, ws := g.Neighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo] == v {
		return ws[lo], true
	}
	return 0, false
}

// HasEdge reports whether the undirected edge {u, v} exists.
func HasEdge(g *CSR, u, v V) bool {
	_, ok := findArc(g, u, v)
	return ok
}

// EdgeWeight returns the weight of edge {u, v}, or +ok=false.
func EdgeWeight(g *CSR, u, v V) (float64, bool) {
	return findArc(g, u, v)
}
