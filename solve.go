package radiusstep

import (
	"context"
	"math"

	"radiusstep/internal/core"
)

// Query is one request to Solver.Solve. A Query with only Source set
// is a full, untraced solve on the solver's configured engine.
type Query struct {
	// Source is the vertex distances are measured from.
	Source Vertex
	// Target, when HasTarget is set, makes the query point-to-point:
	// the solve stops as soon as Target is settled (Theorem 3.1
	// guarantees settled distances are exact), which on large graphs
	// explores only the ball of radius d(Source, Target), and the
	// Result carries the distance and the path but no distance vector
	// (Result.Dist is nil).
	Target    Vertex
	HasTarget bool
	// Engine overrides the solve engine for this query. EngineAuto
	// means the solver's configured engine, and a still-auto choice
	// picks by graph size for full and target queries alike (see
	// EngineAuto). Every engine returns identical distances and, on a
	// target query, the same path; the three radius engines also take
	// the same steps and substeps. Work counters such as
	// Stats.Relaxations and Stats.Pruned may differ between engines.
	Engine Engine
	// Prune makes a target query goal-directed when the solver has
	// landmarks: relaxations whose optimistic total (via the ALT
	// triangle lower bound) cannot beat the best known bound on
	// d(Source, Target) are skipped — Stats.Pruned counts them — and a
	// landmark certifying that Target is unreachable short-circuits the
	// solve. The distance is byte-identical to the unpruned solve's;
	// only the work differs. Full queries and solvers without landmarks
	// ignore it.
	Prune bool
	// Trace attaches a recorder and returns its Timeline: per-step and
	// per-substep timing records, worker-pool event deltas, and frontier
	// phase timings. The recorder is made per query, so traced and
	// untraced queries coexist; untraced ones stay on the zero-overhead
	// path. Pool counters are process-global, so under concurrent solves
	// the pool delta includes the neighbors' events — exact only when
	// solves are serialized (CLI tools, benches).
	Trace bool
}

// Result is the answer to one Query.
type Result struct {
	// Dist is the distance vector from Source (+Inf for unreachable
	// vertices) of a full query. It is nil on a target query, whose
	// answer is Distance and Path.
	Dist []float64
	// Distance is d(Source, Target) on a target query (+Inf when
	// unreachable).
	Distance float64
	// Path is the shortest Source..Target path of a target query, nil
	// when Target is unreachable (see Route).
	Path []Vertex
	// Stats is the solve's round structure.
	Stats Stats
	// Timeline is the solve trace when Query.Trace is set (nil when no
	// solve ran).
	Timeline *Timeline
}

// Solve runs one query under ctx: the solve aborts cooperatively — at
// the next step, substep, or ~8k-arc poll — when ctx is canceled or its
// deadline expires, returning ErrCanceled or ErrDeadline (match with
// errors.Is). A context that cannot end (context.Background) keeps the
// solve on the probe-free path with no extra allocation. Every other
// Solver method that runs a solve is a wrapper around Solve.
func (s *Solver) Solve(ctx context.Context, q Query) (Result, error) {
	kind, err := engineKind(s.resolve(q.Engine))
	if err != nil {
		return Result{}, err
	}
	probe, stop := probeForContext(ctx)
	defer stop()
	params := s.params
	params.Probe = probe
	if q.Trace {
		params.Recorder = core.NewTraceRecorder()
	}
	src, dst := q.Source, q.Target
	if n := Vertex(s.pre.Graph.NumVertices()); q.HasTarget && q.Prune && src >= 0 && src < n && dst >= 0 && dst < n {
		if lm := s.lm.Load(); lm.K() > 0 {
			if math.IsInf(lm.LowerBound(src, dst), 1) {
				// A landmark reaches exactly one endpoint: src and dst
				// are in different components, no solve needed.
				return Result{Distance: math.Inf(1), Stats: Stats{Engine: kind.String()}}, nil
			}
			params.Bound = lm.BoundTo(dst)
			params.UpperBound = lm.Estimate(src, dst)
		}
	}

	var r Result
	ws := s.getWS()
	if q.HasTarget {
		// The path is walked on the workspace's distances before it
		// goes back to the pool, so a target query never copies out an
		// n-vector.
		r.Distance, r.Stats, err = core.SolveTarget(s.pre.Graph, s.pre.Radii, src, dst, kind, params, ws)
		if err == nil && !math.IsInf(r.Distance, 1) {
			r.Path, err = s.walkBack(ws.Dist, src, dst)
		}
	} else {
		r.Dist, r.Stats, err = core.SolveKind(s.pre.Graph, s.pre.Radii, src, kind, params, ws)
	}
	s.putWS(ws)
	if err != nil {
		return Result{}, err
	}
	if params.Recorder != nil {
		r.Timeline = params.Recorder.Timeline()
	}
	return r, nil
}
