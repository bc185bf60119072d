package core

import (
	"math"

	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// flatStepper is the frontier ("flat") fringe shared by two engines:
// instead of ordered sets it keeps reached-but-unsettled vertices in a
// plain array and picks each round distance with a reduction over the
// fringe. The array may contain stale (settled) entries — every consumer
// tolerates them — and the seen stamps bound it to one live entry per
// vertex per step. Which reduction runs is the stepping strategy:
//
//	KindFlat   d_i = min δ(v)+r(v)           (Radius-Stepping, §3.4)
//	KindDelta  d_i = bucket ceiling of min δ (Δ-stepping)
//
// (KindRho ran here before the frontier substrate landed; its rank-query
// rule now lives in rhoStepper, answered by frontier.SelectKth.)
type flatStepper struct {
	ws            *Workspace
	pending, rest []graph.V

	kind  EngineKind
	delta float64
}

func (f *flatStepper) reset() {
	f.pending, f.rest = f.pending[:0], f.rest[:0]
}

func (f *flatStepper) seed(vs []graph.V) {
	f.pending = append(f.pending[:0], vs...)
}

func (f *flatStepper) target() (float64, graph.V, bool) {
	switch f.kind {
	case KindDelta:
		idx, minD := f.minDist()
		if idx < 0 {
			return 0, -1, false
		}
		// The ceiling of the lowest occupied bucket. Float saturation
		// (minD/Δ near 2^53) can round the +1 away; degrading d_i to
		// minD keeps the step non-empty, i.e. batched-ties Dijkstra.
		di := (math.Floor(minD/f.delta) + 1) * f.delta
		if di <= minD {
			di = minD
		}
		return di, f.pending[idx], true
	default: // KindFlat
		// d_i = min over the fringe of δ(v)+r(v); settled duplicates are
		// skipped by treating them as +Inf.
		idx, di := parallel.MinIndex(len(f.pending), math.Inf(1), func(i int) float64 {
			v := f.pending[i]
			if f.ws.done[v] {
				return math.Inf(1)
			}
			return parallel.FromBits(f.ws.bits[v]) + f.ws.radii[v]
		})
		if math.IsInf(di, 1) {
			return 0, -1, false
		}
		return di, f.pending[idx], true
	}
}

// minDist finds the live fringe vertex with the smallest tentative
// distance; index -1 means only stale entries remain.
func (f *flatStepper) minDist() (int, float64) {
	idx, minD := parallel.MinIndex(len(f.pending), math.Inf(1), func(i int) float64 {
		v := f.pending[i]
		if f.ws.done[v] {
			return math.Inf(1)
		}
		return parallel.FromBits(f.ws.bits[v])
	})
	if math.IsInf(minD, 1) {
		return -1, minD
	}
	return idx, minD
}

func (f *flatStepper) collect(di float64, dst []graph.V) []graph.V {
	step := f.ws.step
	rest := f.rest[:0]
	for _, v := range f.pending {
		if f.ws.done[v] || f.ws.seen[v] == step {
			continue
		}
		f.ws.seen[v] = step
		if parallel.FromBits(f.ws.bits[v]) <= di {
			dst = append(dst, v)
		} else {
			rest = append(rest, v)
		}
	}
	f.pending, f.rest = rest, f.pending
	return dst
}

func (f *flatStepper) push(v graph.V, _ float64) {
	// Newly discovered beyond d_i: joins the fringe once per step.
	if f.ws.seen[v] != f.ws.step {
		f.ws.seen[v] = f.ws.step
		f.pending = append(f.pending, v)
	}
}

// settle is a no-op: a stale copy of v possibly left in the fringe is
// skipped later via the done check.
func (f *flatStepper) settle(graph.V) {}

// fringe reports the fringe array length — an overcount when stale
// (settled) entries remain; trace annotation only.
func (f *flatStepper) fringe() int { return len(f.pending) }
