// Package graph provides the weighted undirected graph substrate used by
// every algorithm in this repository: a compressed-sparse-row (CSR)
// representation, an edge-list builder, transforms, validation, and
// serialization. It imports only the standard library.
//
// Conventions: vertices are dense int32 ids in [0, n). Each undirected
// edge {u, v, w} is stored as two directed arcs. Edge weights are
// non-negative float64 values; following the paper, graphs are normalized
// so the lightest non-zero weight is 1, and L denotes the heaviest weight.
// Every CSR made from edges is built by FromEdges, one row at a time;
// a snapshot's CSR is read as it was stored.
//
// # Interchange formats
//
// The package reads and writes four formats, auto-detected by ReadAuto:
//
//   - text (ReadText/WriteText): "p sssp n m" header, 0-indexed
//     "u v w" edge lines — the repo's native interchange format.
//   - dimacs (ReadDIMACS/WriteDIMACS): the DIMACS shortest-path format
//     used by the road-network challenge instances ("p sp n m" header,
//     1-indexed "a u v w" arc lines).
//   - edgelist (ReadEdgeList/WriteEdgeList): headerless whitespace/TSV
//     "u v [w]" lines, the SNAP/web-graph convention; weight defaults
//     to 1.
//   - snapshot (ReadSnapshot/WriteSnapshot): the versioned, checksummed
//     persistence format. A snapshot carries the CSR arrays and, when
//     produced by preprocessing, the per-vertex radii, the pre-shortcut
//     original graph, and the (ρ, k, heuristic) parameters — everything
//     a serving process needs to answer queries without re-running the
//     O(m log n + nρ²) preprocessing phase. See Snapshot for the exact
//     byte layout.
//
// The three text readers are one line loop with one comment rule, which
// Detect follows too: a line whose first non-blank byte is '#', '%' or
// 'c' is a comment in every text format. They reject NaN, infinite, and
// negative weights at parse time with the offending line number; the
// snapshot reader validates its magic, sizes and structural invariants
// and verifies a CRC-32C checksum, so corruption fails loudly at load
// time.
package graph

import "math"

// V is a vertex identifier.
type V = int32

// CSR is an immutable undirected weighted graph in compressed-sparse-row
// form. Off has length n+1; Adj and W have length 2m and hold, for each
// vertex u, its incident arcs in Adj[Off[u]:Off[u+1]].
type CSR struct {
	Off []int64
	Adj []V
	W   []float64

	// Whole-graph statistics, computed once at construction (finalize).
	// Hot paths consult them per solve — DefaultDelta reads MaxWeight on
	// the daemon's query path — so they must not cost an O(m) scan each
	// time. hasStats guards hand-built literals (tests, external
	// construction), which fall back to scanning.
	hasStats   bool
	maxW, minW float64
	maxDeg     int
}

// finalize memoizes the whole-graph statistics. Every constructor in
// this package calls it; the immutability convention (nobody mutates a
// built CSR's arrays) keeps the cache coherent for the graph's lifetime.
func (g *CSR) finalize() *CSR {
	g.maxW, g.minW = 0, math.Inf(1)
	for _, w := range g.W {
		if w > g.maxW {
			g.maxW = w
		}
		if w < g.minW {
			g.minW = w
		}
	}
	g.maxDeg = 0
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.Degree(V(u)); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	g.hasStats = true
	return g
}

// NumVertices returns n.
func (g *CSR) NumVertices() int { return len(g.Off) - 1 }

// NumArcs returns the number of directed arcs (2m for an undirected graph).
func (g *CSR) NumArcs() int { return len(g.Adj) }

// NumEdges returns the number of undirected edges m.
func (g *CSR) NumEdges() int { return len(g.Adj) / 2 }

// Degree returns the number of arcs out of u.
func (g *CSR) Degree(u V) int { return int(g.Off[u+1] - g.Off[u]) }

// Neighbors returns the adjacency and weight slices of u. The returned
// slices alias the graph and must not be modified.
func (g *CSR) Neighbors(u V) ([]V, []float64) {
	lo, hi := g.Off[u], g.Off[u+1]
	return g.Adj[lo:hi], g.W[lo:hi]
}

// MaxWeight returns L, the largest edge weight (0 for an edgeless graph).
// O(1) on constructor-built graphs (memoized at construction).
func (g *CSR) MaxWeight() float64 {
	if g.hasStats {
		return g.maxW
	}
	maxW := 0.0
	for _, w := range g.W {
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}

// MinWeight returns the smallest edge weight (+Inf for an edgeless graph).
// O(1) on constructor-built graphs.
func (g *CSR) MinWeight() float64 {
	if g.hasStats {
		return g.minW
	}
	minW := math.Inf(1)
	for _, w := range g.W {
		if w < minW {
			minW = w
		}
	}
	return minW
}

// IsUnit reports whether every edge weight equals 1 (vacuously true for
// an edgeless graph). O(1) on constructor-built graphs.
func (g *CSR) IsUnit() bool {
	if g.hasStats {
		return len(g.W) == 0 || (g.minW == 1 && g.maxW == 1)
	}
	for _, w := range g.W {
		if w != 1 {
			return false
		}
	}
	return true
}

// MaxDegree returns the largest vertex degree. O(1) on constructor-built
// graphs.
func (g *CSR) MaxDegree() int {
	if g.hasStats {
		return g.maxDeg
	}
	best := 0
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.Degree(V(u)); d > best {
			best = d
		}
	}
	return best
}

// Clone returns a deep copy of g.
func (g *CSR) Clone() *CSR {
	c := &CSR{
		Off: make([]int64, len(g.Off)),
		Adj: make([]V, len(g.Adj)),
		W:   make([]float64, len(g.W)),
		// The copy has identical arrays, so the memoized statistics carry
		// over instead of being rescanned.
		hasStats: g.hasStats,
		maxW:     g.maxW,
		minW:     g.minW,
		maxDeg:   g.maxDeg,
	}
	copy(c.Off, g.Off)
	copy(c.Adj, g.Adj)
	copy(c.W, g.W)
	if !c.hasStats {
		c.finalize()
	}
	return c
}
