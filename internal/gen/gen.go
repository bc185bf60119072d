// Package gen provides deterministic graph generators: the synthetic grids
// the paper uses directly, offline substitutes for its SNAP datasets
// (random-geometric "road networks" and Barabási–Albert "web graphs"),
// classic random graphs, and the pathological construction of Figure 2.
//
// Every generator takes an explicit seed and is fully deterministic, so
// experiments are reproducible bit-for-bit.
package gen

import (
	"math/rand/v2"

	"radiusstep/internal/graph"
)

// rng returns a deterministic PCG generator for the given seed.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// WithUniformIntWeights returns a copy of g whose edge weights are drawn
// independently and uniformly from {lo, ..., hi}. This matches the paper's
// experimental setup, which assigns every edge "a random integer between 1
// and 10,000" when a graph has no weights of its own.
func WithUniformIntWeights(g *graph.CSR, lo, hi int, seed uint64) *graph.CSR {
	if lo < 0 || hi < lo {
		panic("gen: invalid weight range")
	}
	r := rng(seed)
	span := uint64(hi - lo + 1)
	return graph.Reweight(g, func(_, _ graph.V, _ float64) float64 {
		return float64(lo) + float64(r.Uint64N(span))
	})
}

// Chain returns a path graph on n vertices with unit weights.
func Chain(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(graph.V(i), graph.V(i+1), 1)
	}
	return b.Build()
}

// Star returns a star with center 0 and n-1 leaves, unit weights.
func Star(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.Add(0, graph.V(i), 1)
	}
	return b.Build()
}
