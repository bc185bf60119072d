package core

import (
	"radiusstep/internal/frontier"
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// rhoStepTarget is the adaptive quota's step-count goal: grow ρ until a
// step settles about n/rhoStepTarget vertices, so a full solve lands
// near rhoStepTarget steps. 128 keeps steps large enough to amortize
// per-step frontier maintenance (the 1069-step pathology of a fixed
// ρ=32 on 50k vertices) while preserving enough steps that the priority
// ordering still prunes work the way ρ-stepping intends.
const rhoStepTarget = 128

// rhoStepper is the ρ-stepping fringe (Dong et al.) on the flat
// frontier substrate: one frontier keyed by tentative distance, with
// each step's threshold answered by the substrate's rank query —
// d_i is the ρ-th smallest live key — instead of a full fringe scan.
// Extraction, like the parallel engine's, is a binary-searched prefix
// split of the sorted runs, so a step touches the ρ-ish vertices it
// settles rather than the whole fringe, and the frontier likewise
// commits itself at its next query, so a step's substeps pool their
// pushes into one sort (see frontierStepper).
//
// The quota is adaptive in the spirit of Dong et al.'s ρ tuning: a step
// that settles fewer vertices than the ~n/rhoStepTarget goal doubles the
// quota (capped at the goal) for the next step. The rule is a pure function of the solve's own step
// history, so repeated solves of the same query remain deterministic —
// identical step counts and byte-identical distances — and the settled
// set stays exact for any quota (distance exactness never depends on ρ).
type rhoStepper struct {
	ws     *Workspace
	f      *frontier.F
	quota  int // current quota; grows per the adaptive rule
	quota0 int // configured quota (Params.Rho), restored each solve

	stepSettled int // vertices settled by the step in progress (-1: none yet)
	adjusts     int // quota growth events this solve (Stats.QuotaAdjustments)
}

func (s *rhoStepper) reset() {
	if s.f == nil {
		s.f = frontier.New()
	}
	s.f.Reset(len(s.ws.bits))
	s.quota = s.quota0
	s.stepSettled = -1
	s.adjusts = 0
}

func (s *rhoStepper) seed(vs []graph.V) {
	for _, v := range vs {
		s.f.Push(v, parallel.FromBits(s.ws.bits[v]))
	}
	s.f.Commit()
}

func (s *rhoStepper) target() (float64, graph.V, bool) {
	m := s.f.Len()
	if m == 0 {
		return 0, -1, false
	}
	if s.stepSettled >= 0 {
		// Step economics: aim for ~n/rhoStepTarget settled per step.
		// A step that fell short doubles the quota toward that goal, so
		// a solve stuck settling ρ-sized crumbs converges to the goal in
		// O(log) steps instead of paying per-step overhead O(n/ρ) times.
		want := len(s.ws.bits) / rhoStepTarget
		if want < s.quota0 {
			want = s.quota0
		}
		if s.stepSettled < want && s.quota < want {
			s.quota *= 2
			if s.quota > want {
				s.quota = want
			}
			s.adjusts++
		}
	}
	s.stepSettled = 0
	k := s.quota
	if k > m {
		k = m
	}
	// Head, not Min: the lead only labels the step trace, so any
	// minimum-key witness serves — no equal-key tiebreak scan.
	lead, _ := s.f.Head()
	return s.f.SelectKth(k), lead.V, true
}

func (s *rhoStepper) collect(di float64, dst []graph.V) []graph.V {
	out := s.f.ExtractBelow(di, dst)
	s.stepSettled += len(out)
	return out
}

func (s *rhoStepper) push(v graph.V, d float64) { s.f.Push(v, d) }

// settle covers the vertices that join the step's active set during its
// substeps (collect counted the initial extraction); together they equal
// the step's final settled count, the adaptive rule's input.
func (s *rhoStepper) settle(v graph.V) {
	s.stepSettled++
	s.f.Drop(v)
}

func (s *rhoStepper) fringe() int { return s.f.Len() }

func (s *rhoStepper) setTiming(on bool) { s.f.SetTiming(on) }

func (s *rhoStepper) frontierOps() frontier.Ops { return s.f.Ops() }
