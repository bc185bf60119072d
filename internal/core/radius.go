package core

import (
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// refHeapEnt is a lazy-deletion heap entry keyed by key with payload v.
type refHeapEnt struct {
	key float64
	v   graph.V
}

// refHeap is a plain binary min-heap with lazy deletion: stale entries
// (whose key no longer matches the vertex's current key) are skipped at
// pop time. Decrease-key is "push a fresh entry".
type refHeap []refHeapEnt

func (h *refHeap) push(e refHeapEnt) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].key <= e.key {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

func (h *refHeap) pop() refHeapEnt {
	s := *h
	top := s[0]
	last := len(s) - 1
	e := s[last]
	*h = s[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && s[c+1].key < s[c].key {
				c++
			}
			if s[c].key >= e.key {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = e
	}
	return top
}

// heapStepper is the sequential reference fringe of Algorithm 1: two
// lazy-deletion binary heaps, Q keyed by δ(v) and R keyed by δ(v)+r(v).
// Staleness is detected at pop time by comparing an entry's key with the
// vertex's current distance, so push and settle never search the heaps.
type heapStepper struct {
	ws   *Workspace
	q, r refHeap
}

func (h *heapStepper) reset() {
	h.q, h.r = h.q[:0], h.r[:0]
}

func (h *heapStepper) seed(vs []graph.V) {
	for _, v := range vs {
		h.push(v, parallel.FromBits(h.ws.bits[v]))
	}
}

func (h *heapStepper) target() (float64, graph.V, bool) {
	// Pop stale R entries to find the round distance d_i and the lead.
	for len(h.r) > 0 {
		top := h.r[0]
		if h.ws.done[top.v] || top.key != parallel.FromBits(h.ws.bits[top.v])+h.ws.radii[top.v] {
			h.r.pop()
			continue
		}
		return top.key, top.v, true
	}
	return 0, -1, false
}

func (h *heapStepper) collect(di float64, dst []graph.V) []graph.V {
	for len(h.q) > 0 {
		top := h.q[0]
		if h.ws.done[top.v] || top.key != parallel.FromBits(h.ws.bits[top.v]) {
			h.q.pop()
			continue
		}
		if top.key > di {
			break
		}
		h.q.pop()
		dst = append(dst, top.v)
	}
	return dst
}

func (h *heapStepper) push(v graph.V, d float64) {
	h.q.push(refHeapEnt{d, v})
	h.r.push(refHeapEnt{d + h.ws.radii[v], v})
}

// settle is a no-op: the vertex's heap entries go stale (its distance
// dropped below their keys) and lazy deletion skips them.
func (h *heapStepper) settle(graph.V) {}

func (h *heapStepper) commit() {}

// fringe reports the Q heap length — an overcount when lazy-deleted
// entries remain; trace annotation only.
func (h *heapStepper) fringe() int { return len(h.q) }

// SolveRef computes shortest-path distances from src with the reference
// (sequential) Radius-Stepping. It returns +Inf for unreachable vertices.
func SolveRef(g *graph.CSR, radii []float64, src graph.V) ([]float64, Stats, error) {
	return SolveKind(g, radii, src, KindSequential, Params{}, nil)
}
