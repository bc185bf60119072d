package core

import (
	"radiusstep/internal/frontier"
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// FrontierOps aliases the ordered-frontier substrate's operation
// counters so callers of the public API can read Stats.Frontier without
// importing internal/frontier.
type FrontierOps = frontier.Ops

// frontierBacked is implemented by steppers built on the flat frontier
// substrate; the driver folds their op counters into Stats.
type frontierBacked interface {
	frontierOps() frontier.Ops
}

// frontierStepper is the fringe of the paper's parallel engine
// (Algorithm 2) on the flat arena-backed frontier substrate: the
// priority set Q (keyed by δ(v)) is a lazy-batched run collection
// instead of the paper's join-based ordered sets (§3.2). push and
// settle stage their work as O(1) epoch-stamped records; the frontier
// commits itself at its next query (target or collect), sealing the
// staged batch into a sorted run and merging runs lazily (the bulk
// union), and collect is a binary-searched prefix extraction (the
// split). Because nothing commits between substeps, a step's substeps
// pool their pushes into one batch: a vertex improved in several
// substeps is sorted once, at its final key, instead of once per
// substep. The paper's second set R (keyed by δ(v)+r(v)) is not
// materialized: its only role in Algorithm 2 is the d_i = min δ(v)+r(v)
// query, which the substrate answers with one shifted min-reduction
// over Q's runs — maintaining R's order cost as much as Q's and bought
// nothing else. Same step/substep structure as the paper's trees, with
// zero steady-state allocations and no pointer chasing.
type frontierStepper struct {
	ws *Workspace
	q  *frontier.F
}

func (p *frontierStepper) reset() {
	if p.q == nil {
		p.q = frontier.New()
	}
	p.q.Reset(len(p.ws.bits))
}

func (p *frontierStepper) seed(vs []graph.V) {
	for _, v := range vs {
		p.push(v, parallel.FromBits(p.ws.bits[v]))
	}
	p.q.Commit()
}

func (p *frontierStepper) target() (float64, graph.V, bool) {
	// d_i = min over the fringe of δ(v)+r(v), ties to the smaller
	// vertex — the same target (and lead) the ordered-set R produced.
	v, di, ok := p.q.MinShifted(p.ws.radii)
	if !ok {
		return 0, -1, false
	}
	return di, v, true
}

func (p *frontierStepper) collect(di float64, dst []graph.V) []graph.V {
	// The split of Q takes every key <= d_i.
	return p.q.ExtractBelow(di, dst)
}

func (p *frontierStepper) push(v graph.V, d float64) {
	p.q.Push(v, d)
}

func (p *frontierStepper) settle(v graph.V) {
	p.q.Drop(v)
}

func (p *frontierStepper) fringe() int { return p.q.Len() }

func (p *frontierStepper) setTiming(on bool) { p.q.SetTiming(on) }

func (p *frontierStepper) frontierOps() frontier.Ops {
	return p.q.Ops()
}
