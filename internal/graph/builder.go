package graph

import (
	"fmt"
	"sort"

	"radiusstep/internal/parallel"
)

// Edge is one undirected weighted edge.
type Edge struct {
	U, V V
	W    float64
}

// Builder accumulates undirected edges and produces a CSR. Self-loops are
// dropped and parallel edges are merged keeping the lightest weight, so
// the result is always a simple graph (as the paper assumes).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow raises the vertex count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumVertices returns the current vertex count.
func (b *Builder) NumVertices() int { return b.n }

// NumEdges returns the number of accumulated (pre-dedup) edges.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Add records the undirected edge {u, v} with weight w.
// It panics on out-of-range endpoints or negative weights, which are
// programming errors rather than runtime conditions.
func (b *Builder) Add(u, v V, w float64) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %v on edge (%d,%d)", w, u, v))
	}
	b.edges = append(b.edges, Edge{u, v, w})
}

// Build produces the CSR. The accumulated edge list is consumed.
func (b *Builder) Build() *CSR {
	return FromEdges(b.n, b.edges)
}

// FromEdges builds a simple undirected CSR from an edge list: self-loops
// removed, parallel edges merged to the minimum weight, adjacency lists
// sorted by (neighbor, weight). The build is parallel: arcs are expanded,
// sorted by source with a parallel sort, deduplicated, and offsets are
// derived with a scan.
func FromEdges(n int, edges []Edge) *CSR {
	type arc struct {
		src, dst V
		w        float64
	}
	arcs := make([]arc, 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue // drop self-loops
		}
		arcs = append(arcs, arc{e.U, e.V, e.W}, arc{e.V, e.U, e.W})
	}
	parallel.Sort(arcs, func(a, b arc) bool {
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.w < b.w
	})
	// Dedup parallel arcs keeping the first (lightest) of each (src, dst).
	// kept aliases arcs' backing array, so comparisons use kept's tail.
	kept := arcs[:0]
	for _, a := range arcs {
		if last := len(kept) - 1; last >= 0 && a.src == kept[last].src && a.dst == kept[last].dst {
			continue
		}
		kept = append(kept, a)
	}
	g := &CSR{
		Off: make([]int64, n+1),
		Adj: make([]V, len(kept)),
		W:   make([]float64, len(kept)),
	}
	deg := make([]int64, n)
	for _, a := range kept {
		deg[a.src]++
	}
	// Off[u] = number of arcs with source < u; arcs are already sorted by
	// source, so the i-th kept arc lands at position i.
	total := parallel.ExclusiveScan(deg, g.Off[:n])
	g.Off[n] = total
	parallel.For(len(kept), func(i int) {
		g.Adj[i] = kept[i].dst
		g.W[i] = kept[i].w
	})
	return g.finalize()
}

// AddShortcuts returns a new graph equal to g plus the given extra edges
// (deduplicated against g and each other, keeping minimum weights). The
// original graph is unchanged. This is the operation the preprocessing
// phase uses to materialize (k, ρ)-graphs.
func AddShortcuts(g *CSR, extra []Edge) *CSR {
	edges := make([]Edge, 0, g.NumEdges()+len(extra))
	for u := 0; u < g.NumVertices(); u++ {
		adj, ws := g.Neighbors(V(u))
		for i, v := range adj {
			if V(u) < v { // each undirected edge once
				edges = append(edges, Edge{V(u), v, ws[i]})
			}
		}
	}
	edges = append(edges, extra...)
	return FromEdges(g.NumVertices(), edges)
}

// Edges returns the undirected edge list of g (each edge once, U < V),
// sorted by (U, V).
func Edges(g *CSR) []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		adj, ws := g.Neighbors(V(u))
		for i, v := range adj {
			if V(u) < v {
				out = append(out, Edge{V(u), v, ws[i]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
