// Package core implements the unified stepping-engine framework behind
// the library: one driver (see solve in stepper.go) runs synchronous
// Bellman–Ford substeps against a pluggable Stepper that owns the fringe
// of reached-but-unsettled vertices and chooses each step's settling
// threshold d_i. SolveKind runs a full solve and SolveTarget a solve
// that stops when its target settles; both take the engine kind. Five
// kinds plug in, all computing identical distances:
//
//   - KindSequential: Radius-Stepping with lazy-deletion heaps and a
//     sequential relax loop, faithful to Algorithm 1. It is the fastest
//     single-thread variant and the one experiments use for step
//     counting.
//   - KindParallel: the paper's efficient parallel implementation
//     (Algorithm 2) on the flat ordered-frontier substrate
//     (internal/frontier): the priority set Q is a collection of
//     lazy-batched distance-sorted runs updated with bulk split/union,
//     the d_i = min δ(v)+r(v) query replaces the R set, and substeps
//     relax edges concurrently with priority-writes.
//   - KindFlat: the §3.4 frontier engine that avoids ordered sets by
//     scanning the (small) fringe to pick each round distance; on
//     unweighted graphs this is the paper's parallel-BFS-style variant.
//   - KindDelta: Δ-stepping expressed as a step-target rule — d_i is the
//     ceiling of the lowest occupied Δ-bucket — the fixed-width strategy
//     Radius-Stepping refines.
//   - KindRho: ρ-stepping — d_i is the ρ-th smallest fringe distance, so
//     each step settles (at least) the ρ closest vertices.
//
// The three radius engines take the per-vertex radii r(v) produced by
// preprocessing and yield identical step/substep counts; correctness
// holds for any non-negative radii (Theorem 3.1), while the step and
// substep bounds require the (k, ρ)-graph property. The Δ- and
// ρ-stepping engines ignore the radii entirely.
//
// Repeated solves can reuse a Workspace (distance, stamp, heap and
// frontier buffers), so a warm solve allocates its distance vector and
// little else: in the sequential, flat and delta engines the relax
// kernel is the one place a solve forks (see forkArcs), and each fork
// allocates a few objects.
package core

import (
	"fmt"

	"radiusstep/internal/graph"
)

// Stats describes the round structure of one solve.
type Stats struct {
	// Engine names the engine kind that produced this solve
	// (sequential, parallel, flat, delta, rho).
	Engine string
	// Steps is the number of outer iterations (the paper's "steps"
	// or "rounds": Theorem 3.3 bounds it by O((n/ρ)·log ρL)).
	Steps int
	// Substeps is the total number of inner Bellman–Ford iterations
	// across all steps (at most k+2 per step on a (k, ρ)-graph,
	// Theorem 3.2).
	Substeps int
	// MaxSubsteps is the largest substep count of any single step.
	MaxSubsteps int
	// Relaxations counts successful distance improvements.
	Relaxations int64
	// Pruned counts relaxation candidates skipped by the target-mode
	// goal-direction hook (Params.Bound): their optimistic total
	// d(u)+w+Bound(v) could not beat the target's current upper bound.
	// Always zero on full solves and when no Bound is set. Like
	// Relaxations, it depends on the order candidates are met, so it
	// can differ between engines and between runs of a parallel kernel.
	Pruned int64
	// EdgesScanned counts arcs examined.
	EdgesScanned int64
	// MaxStep is the largest number of vertices settled in one step.
	MaxStep int
	// QuotaAdjustments counts adaptive-ρ quota growth events (KindRho):
	// each is one doubling of the extraction quota toward the ~n/steps
	// settling goal. Zero for every other engine, so the step-count
	// reduction the adaptive rule buys is auditable per solve.
	QuotaAdjustments int
	// Frontier reports the ordered-frontier substrate's operation
	// counters for the engines built on internal/frontier (parallel,
	// rho); zero for the other engines.
	Frontier FrontierOps
}

func (s Stats) String() string {
	out := fmt.Sprintf("engine=%s steps=%d substeps=%d maxsub=%d relax=%d scanned=%d maxstep=%d",
		s.Engine, s.Steps, s.Substeps, s.MaxSubsteps, s.Relaxations, s.EdgesScanned, s.MaxStep)
	if s.Pruned > 0 {
		out += fmt.Sprintf(" pruned=%d", s.Pruned)
	}
	if s.QuotaAdjustments > 0 {
		out += fmt.Sprintf(" quotaadj=%d", s.QuotaAdjustments)
	}
	if s.Frontier.Batches > 0 {
		out += fmt.Sprintf(" frontier(batches=%d merges=%d extracted=%d stale=%d)",
			s.Frontier.Batches, s.Frontier.Merges, s.Frontier.Extracted, s.Frontier.Stale)
	}
	return out
}

// validateSrc checks the source alone (the radius-free engines accept
// nil radii).
func validateSrc(g *graph.CSR, src graph.V) error {
	if n := g.NumVertices(); src < 0 || int(src) >= n {
		return fmt.Errorf("core: source %d out of range [0,%d)", src, n)
	}
	return nil
}

// validate checks the source and the radii's length. It does not scan
// the radii's values: the caller passes radii that meet
// graph.CheckRadii, as a Solver checks its own once when it is built.
func validate(g *graph.CSR, radii []float64, src graph.V) error {
	if n := g.NumVertices(); len(radii) != n {
		return fmt.Errorf("core: %d radii for %d vertices", len(radii), n)
	}
	return validateSrc(g, src)
}
