// Package baseline implements the comparison algorithms the paper
// measures Radius-Stepping against: sequential Dijkstra (the work
// baseline), Meyer–Sanders ∆-stepping, and level-synchronous parallel
// BFS (the unweighted, ρ=1 baseline). Bellman–Ford, the r(v)=∞
// degenerate case, is core.BellmanFord: the sequential engine with
// unbounded radii.
package baseline

import (
	"math"

	"radiusstep/internal/graph"
)

// vertexHeap is an indexed binary min-heap over vertices keyed by
// float64, supporting decrease-key in O(log n); the standard Dijkstra
// priority queue.
type vertexHeap struct {
	key  []float64
	pos  []int32 // position of vertex in heap, -1 if absent
	heap []graph.V
}

func newVertexHeap(n int) *vertexHeap {
	h := &vertexHeap{
		key:  make([]float64, n),
		pos:  make([]int32, n),
		heap: make([]graph.V, 0, 64),
	}
	for i := range h.pos {
		h.pos[i] = -1
		h.key[i] = math.Inf(1)
	}
	return h
}

func (h *vertexHeap) Len() int { return len(h.heap) }

// DecreaseKey inserts v with key k, or lowers v's key to k. Raising a key
// is a programming error and panics.
func (h *vertexHeap) DecreaseKey(v graph.V, k float64) {
	if h.pos[v] == -1 {
		h.key[v] = k
		h.pos[v] = int32(len(h.heap))
		h.heap = append(h.heap, v)
		h.up(len(h.heap) - 1)
		return
	}
	if k > h.key[v] {
		panic("baseline: DecreaseKey would raise a key")
	}
	h.key[v] = k
	h.up(int(h.pos[v]))
}

// PopMin removes and returns the vertex with the smallest key.
func (h *vertexHeap) PopMin() (graph.V, float64) {
	v := h.heap[0]
	k := h.key[v]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, k
}

func (h *vertexHeap) up(i int) {
	v := h.heap[i]
	k := h.key[v]
	for i > 0 {
		p := (i - 1) / 2
		pv := h.heap[p]
		if h.key[pv] <= k {
			break
		}
		h.heap[i] = pv
		h.pos[pv] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *vertexHeap) down(i int) {
	n := len(h.heap)
	v := h.heap[i]
	k := h.key[v]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.key[h.heap[c+1]] < h.key[h.heap[c]] {
			c++
		}
		cv := h.heap[c]
		if h.key[cv] >= k {
			break
		}
		h.heap[i] = cv
		h.pos[cv] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
