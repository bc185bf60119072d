package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// sorted by (neighbor, weight). It builds the graph row by row: one pass
// counts each vertex's arcs, a second places every arc in its source's
// row, and each row is then sorted and deduplicated on its own, which is
// O(m log d) work for maximum degree d. Adj and W are allocated at their
// final length.
func FromEdges(n int, edges []Edge) *CSR {
	off := make([]int64, n+1)
	for _, e := range edges {
		if e.U != e.V { // self-loops are dropped
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for u := range n {
		off[u+1] += off[u]
	}
	type arc struct {
		dst V
		w   float64
	}
	arcs := make([]arc, off[n])
	next := slices.Clone(off[:n])
	for _, e := range edges {
		if e.U != e.V {
			arcs[next[e.U]] = arc{e.V, e.W}
			next[e.U]++
			arcs[next[e.V]] = arc{e.U, e.W}
			next[e.V]++
		}
	}
	// Sort each row and keep the first, lightest, arc to each neighbor,
	// moving the kept arcs down over the dropped ones. off[u] is
	// rewritten to u's kept start once its old value has been read.
	kept := int64(0)
	for u := range n {
		row := arcs[off[u]:off[u+1]]
		off[u] = kept
		if len(row) > 1 {
			slices.SortFunc(row, func(a, b arc) int {
				if a.dst != b.dst {
					return cmp.Compare(a.dst, b.dst)
				}
				return cmp.Compare(a.w, b.w)
			})
		}
		for _, a := range row {
			if kept > off[u] && arcs[kept-1].dst == a.dst {
				continue
			}
			arcs[kept] = a
			kept++
		}
	}
	off[n] = kept
	g := &CSR{Off: off, Adj: make([]V, kept), W: make([]float64, kept)}
	for i, a := range arcs[:kept] {
		g.Adj[i], g.W[i] = a.dst, a.w
	}
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
