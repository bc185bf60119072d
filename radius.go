package radiusstep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"radiusstep/internal/core"
	"radiusstep/internal/graph"
	"radiusstep/internal/landmark"
	"radiusstep/internal/preprocess"
	"radiusstep/internal/trace"
)

// Graph is an immutable undirected weighted graph in compressed-sparse-
// row form. Build one with NewBuilder, FromEdges, a generator, or the
// reader functions.
type Graph = graph.CSR

// Edge is one undirected weighted edge {U, V} with weight W >= 0.
type Edge = graph.Edge

// Vertex is a dense vertex identifier in [0, n).
type Vertex = graph.V

// Stats reports the round structure of one solve: Steps (outer rounds),
// Substeps (inner Bellman–Ford rounds), counters for scanned edges and
// successful relaxations, and — for the engines built on the ordered-
// frontier substrate — the substrate's operation counters (Frontier).
type Stats = core.Stats

// FrontierOps counts ordered-frontier substrate operations (staged
// pushes, sealed batches, run merges, extractions, stale skips, rank
// queries) for one solve on the parallel or rho engine.
type FrontierOps = core.FrontierOps

// Timeline is the full trace of one solve: per-step and per-substep
// timing records, worker-pool event deltas, and frontier-substrate
// phase timings. Produced by a traced Query (Solver.Solve,
// DistancesTraced), the daemon's ?trace=1 query parameter and cmd/sssp
// -trace.
type Timeline = trace.Timeline

// TimelineStep is one step's trace record (threshold, settled count,
// substeps, phase timings).
type TimelineStep = trace.StepRecord

// TimelineSubstep is one Bellman–Ford substep's trace record
// (push/pull mode, relax participants, frontier size, arcs scanned,
// wall time).
type TimelineSubstep = trace.SubstepRecord

// TimelinePool is the worker-pool event delta across a traced solve
// (wakes, parks, wake latency, join-barrier wait, claims).
type TimelinePool = trace.PoolDelta

// TimelineFrontier is the ordered-frontier substrate's phase timing for
// a traced solve (filter vs sort vs merge time inside Commit).
type TimelineFrontier = trace.FrontierPhases

// Heuristic selects how shortcut edges are placed for K > 1.
type Heuristic = preprocess.Heuristic

// Shortcut heuristics: HeuristicDirect adds an edge to every ball vertex
// (the (1,ρ) construction); HeuristicGreedy shortcuts tree levels
// k+1, 2k+1, …; HeuristicDP solves the per-tree optimal F(u,t) dynamic
// program (§4.2 of the paper; DP is never worse than greedy).
const (
	HeuristicDirect = preprocess.Direct
	HeuristicGreedy = preprocess.Greedy
	HeuristicDP     = preprocess.DP
)

// Engine selects the stepping engine a Solver uses. All engines share
// one driver and produce identical distances; they differ in how each
// step's settling threshold is chosen and in their fringe structures
// (see internal/core's stepping-engine framework).
type Engine int

const (
	// EngineAuto picks EngineFlat for a full or target solve on a graph
	// with at least 2^17 arcs after preprocessing and EngineSequential
	// below that. As a per-query override it means "no override": the
	// solver's configured engine applies.
	EngineAuto Engine = iota
	// EngineSequential is the lazy-heap reference implementation —
	// fastest on a single core and the engine experiments count with.
	EngineSequential
	// EngineParallel is the paper's Algorithm 2: ordered-set Q/R with
	// bulk updates and concurrent priority-write relaxations.
	EngineParallel
	// EngineFlat is the §3.4 frontier engine (no ordered sets); on
	// unweighted graphs this is the parallel-BFS-style variant.
	EngineFlat
	// EngineDelta is Δ-stepping expressed in the unified framework:
	// each step settles everything below the ceiling of the lowest
	// occupied Δ-bucket. It ignores the radii; the bucket width is
	// derived from the graph (max weight over mean degree).
	EngineDelta
	// EngineRho is ρ-stepping: each step settles at least the ρ closest
	// fringe vertices (Options.Rho doubles as the quota). It ignores
	// the radii.
	EngineRho
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSequential:
		return "sequential"
	case EngineParallel:
		return "parallel"
	case EngineFlat:
		return "flat"
	case EngineDelta:
		return "delta"
	case EngineRho:
		return "rho"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseHeuristic maps a heuristic name (direct, greedy, dp) to its
// value, the inverse of Heuristic.String. CLI tools and config loaders
// should use this instead of a bare map lookup so typos fail loudly
// rather than silently selecting the zero value.
func ParseHeuristic(name string) (Heuristic, error) {
	switch name {
	case "direct":
		return HeuristicDirect, nil
	case "greedy":
		return HeuristicGreedy, nil
	case "dp":
		return HeuristicDP, nil
	default:
		return HeuristicDirect, fmt.Errorf("radiusstep: unknown heuristic %q (want direct|greedy|dp)", name)
	}
}

// ParseEngine maps an engine name to its value, accepting both the
// String() names (auto, sequential, parallel, flat, delta, rho) and the
// short CLI aliases (seq, par).
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "auto":
		return EngineAuto, nil
	case "seq", "sequential":
		return EngineSequential, nil
	case "par", "parallel":
		return EngineParallel, nil
	case "flat":
		return EngineFlat, nil
	case "delta":
		return EngineDelta, nil
	case "rho":
		return EngineRho, nil
	default:
		return EngineAuto, fmt.Errorf("radiusstep: unknown engine %q (want auto|seq|par|flat|delta|rho)", name)
	}
}

// Options configures preprocessing and the solver.
type Options struct {
	// Rho is the ball size ρ (>= 1): each step settles about ρ vertices,
	// so depth shrinks and preprocessing cost grows with ρ. Default 32.
	// EngineRho reuses it as the per-step extraction quota.
	Rho int
	// K is the hop budget k (>= 1, default 4): larger k adds fewer
	// shortcut edges but allows up to k+2 substeps per step. K = 1 is
	// the direct (1,ρ) construction, which links every vertex to its
	// whole ρ-ball.
	K int
	// Heuristic places shortcuts when K > 1 (default HeuristicDP).
	Heuristic Heuristic
	// Engine picks the query implementation (default EngineAuto).
	Engine Engine
}

func (o *Options) setDefaults() {
	if o.Rho == 0 {
		o.Rho = 32
	}
	if o.K == 0 {
		o.K = 4
	}
	if o.K > 1 && o.Heuristic == HeuristicDirect {
		o.Heuristic = HeuristicDP
	}
}

// validate rejects option values that setDefaults would otherwise let
// slip through (a negative Rho or K is never a default request, it is a
// bug in the caller).
func (o Options) validate() error {
	if o.Rho < 0 {
		return fmt.Errorf("radiusstep: Rho %d is negative (use 0 for the default, or >= 1)", o.Rho)
	}
	if o.K < 0 {
		return fmt.Errorf("radiusstep: K %d is negative (use 0 for the default, or >= 1)", o.K)
	}
	if o.Engine < EngineAuto || o.Engine > EngineRho {
		return fmt.Errorf("radiusstep: unknown engine %d", int(o.Engine))
	}
	if o.Heuristic < HeuristicDirect || o.Heuristic > HeuristicDP {
		return fmt.Errorf("radiusstep: unknown heuristic %d", int(o.Heuristic))
	}
	return nil
}

// WithDefaults returns o with the solver defaults filled in (Rho 32,
// K 4, DP heuristic when K > 1) — the effective parameters NewSolver
// would run with. Exposed so tools that persist preprocessing results
// (cmd/graphpack) and serving metadata report the truth instead of zero
// values.
func (o Options) WithDefaults() Options {
	o.setDefaults()
	return o
}

// Preprocessed is the output of Preprocess: the augmented (k, ρ)-graph
// (same shortest-path metric as the input), the radii, and work
// statistics.
type Preprocessed struct {
	// Graph is the input plus shortcut edges; queries run on it.
	Graph *Graph
	// Original is the input graph (no shortcuts). Path reconstruction
	// walks it so returned routes use only real edges.
	Original *Graph
	// Radii holds r_ρ(v) for every vertex.
	Radii []float64
	// Added counts genuinely new shortcut edges (per-source accounting).
	Added int64
	// Visited and EdgesScanned measure preprocessing work.
	Visited      int64
	EdgesScanned int64
}

// Preprocess converts g into a (k, ρ)-graph per opt and derives the
// per-vertex radii. The input graph is not modified. Rho is clamped to
// the vertex count (a ball cannot exceed the graph). Invalid options
// (negative Rho or K, unknown engine or heuristic) are rejected
// with a clear error rather than silently defaulted.
func Preprocess(g *Graph, opt Options) (*Preprocessed, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	if n := g.NumVertices(); opt.Rho > n && n > 0 {
		opt.Rho = n
	}
	res, err := preprocess.Run(g, preprocess.Options{
		Rho:       opt.Rho,
		K:         opt.K,
		Heuristic: opt.Heuristic,
	})
	if err != nil {
		return nil, err
	}
	return &Preprocessed{
		Graph:        res.G,
		Original:     g,
		Radii:        res.Radii,
		Added:        res.Added,
		Visited:      res.Visited,
		EdgesScanned: res.EdgesScanned,
	}, nil
}

// Radii computes r_ρ(v) for every vertex without adding shortcuts.
func Radii(g *Graph, rho int) ([]float64, error) {
	return preprocess.RadiiOnly(g, rho)
}

// Solver answers repeated single-source shortest-path queries over a
// preprocessed graph. Construct with NewSolver (which preprocesses) or
// NewSolverPre (re-using an existing Preprocessed). A Solver is safe for
// concurrent queries: each solve takes a pooled workspace, so repeated
// queries are allocation-free in steady state beyond the returned
// distance vectors.
type Solver struct {
	pre    *Preprocessed
	engine Engine
	params core.Params
	// wsPool pools *core.Workspace, one per in-flight solve. It sits
	// behind an atomic pointer (not a bare sync.Pool) so ResetWorkspaces
	// can swap in a fresh pool without copying a pool value or racing
	// concurrent Get/Put.
	wsPool atomic.Pointer[sync.Pool]

	// lm is the ALT landmark set serving goal-directed Route queries;
	// nil until landmarks are built (BuildLandmarks) or restored from a
	// snapshot (SetLandmarkData). Published by atomic pointer: readers
	// Load once per query, and each writer replaces the whole set under
	// lmMu (see landmarks.go).
	lm   atomic.Pointer[landmark.Set]
	lmMu sync.Mutex
}

// NewSolver preprocesses g per opt and returns a query object. The
// preprocessing cost is amortized over all subsequent queries (§5.4:
// raise Rho when many sources will be queried).
func NewSolver(g *Graph, opt Options) (*Solver, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	pre, err := Preprocess(g, opt)
	if err != nil {
		return nil, err
	}
	return newSolver(pre, opt.Engine, opt.Rho)
}

// NewSolverPre wraps an existing preprocessing result. Its radii must
// be finite and non-negative.
func NewSolverPre(pre *Preprocessed, engine Engine) (*Solver, error) {
	if pre == nil || pre.Graph == nil || len(pre.Radii) != pre.Graph.NumVertices() {
		return nil, fmt.Errorf("radiusstep: invalid preprocessed input")
	}
	if engine < EngineAuto || engine > EngineRho {
		return nil, fmt.Errorf("radiusstep: unknown engine %d", int(engine))
	}
	return newSolver(pre, engine, 0)
}

// newSolver checks the radii once, so no solve scans them again. rho
// is EngineRho's quota (0 selects the default).
func newSolver(pre *Preprocessed, engine Engine, rho int) (*Solver, error) {
	if err := graph.CheckRadii(pre.Radii); err != nil {
		return nil, fmt.Errorf("radiusstep: %w", err)
	}
	s := &Solver{pre: pre, engine: engine, params: core.Params{Rho: rho}}
	s.ResetWorkspaces()
	return s, nil
}

// getWS takes a workspace from the solver's pool (or makes one). Callers
// return it with putWS; buffers are grow-only, so steady-state queries
// on one graph reuse the same allocations.
func (s *Solver) getWS() *core.Workspace { return s.wsPool.Load().Get().(*core.Workspace) }

// putWS returns a workspace to the pool.
func (s *Solver) putWS(ws *core.Workspace) { s.wsPool.Load().Put(ws) }

// ResetWorkspaces discards every pooled solve workspace by swapping in a
// fresh pool; in-flight solves finish on their old workspaces, which are
// then returned to the new pool and re-grown on demand. Workspace
// buffers are grow-only — sized by the largest solve they ever served —
// so a measurement harness that sweeps a dimension affecting buffer
// shape (GOMAXPROCS, most notably: per-worker buffers are sized by the
// worker count) calls this between settings to keep each setting's
// steady state from inheriting the previous one's footprint. Not needed
// in ordinary serving, where inherited capacity is exactly the point of
// pooling.
func (s *Solver) ResetWorkspaces() {
	s.wsPool.Store(&sync.Pool{New: func() any { return core.NewWorkspace() }})
}

// Preprocessed exposes the solver's augmented graph and radii.
func (s *Solver) Preprocessed() *Preprocessed { return s.pre }

// NewSnapshot packages a preprocessing result for persistence: the
// augmented graph, the original graph, the radii, and the effective
// parameters from opt. Write it with WriteSnapshot/WriteSnapshotFile.
func NewSnapshot(pre *Preprocessed, opt Options) (*Snapshot, error) {
	if pre == nil || pre.Graph == nil || len(pre.Radii) != pre.Graph.NumVertices() {
		return nil, fmt.Errorf("radiusstep: invalid preprocessed input")
	}
	opt.setDefaults()
	// Mirror Preprocess's rho clamp so the persisted metadata states the
	// parameters the radii were actually derived with.
	if n := pre.Graph.NumVertices(); opt.Rho > n && n > 0 {
		opt.Rho = n
	}
	return &Snapshot{
		G:         pre.Graph,
		Original:  pre.Original,
		Radii:     pre.Radii,
		Rho:       opt.Rho,
		K:         opt.K,
		Heuristic: opt.Heuristic.String(),
	}, nil
}

// SolverFromSnapshot builds a query Solver from a persisted snapshot
// without re-running preprocessing. The snapshot must carry radii (i.e.
// it was written from a preprocessing result, not a bare format
// conversion); otherwise preprocess the snapshot's graph with NewSolver.
// The persisted ρ becomes the ρ-stepping quota, so a snapshot-loaded
// solver answers engine=rho queries with the same step structure as one
// preprocessed in-process with that ρ.
//
// A snapshot packed with a cache-locality relabeling (graphpack -order;
// s.Perm != nil) yields a solver that operates in STORED ids: map query
// sources through s.Perm[src] and returned distance vectors back with
// UnpermuteFloats(dist, s.Perm) (vertices in paths map back through
// InvertPerm) — exactly what the serving registry does transparently;
// see the id-mapping helpers on internal/server's Entry. Callers that
// want original ids without remapping should load via LoadGraphFile
// (which undoes the relabeling) and preprocess with NewSolver instead.
func SolverFromSnapshot(s *Snapshot, engine Engine) (*Solver, error) {
	if s == nil || s.G == nil {
		return nil, fmt.Errorf("radiusstep: nil snapshot")
	}
	if s.Radii == nil {
		return nil, fmt.Errorf("radiusstep: snapshot has no radii; preprocess its graph with NewSolver instead")
	}
	if len(s.Radii) != s.G.NumVertices() {
		return nil, fmt.Errorf("radiusstep: snapshot radii/graph size mismatch")
	}
	if engine < EngineAuto || engine > EngineRho {
		return nil, fmt.Errorf("radiusstep: unknown engine %d", int(engine))
	}
	sol, err := newSolver(&Preprocessed{
		Graph:    s.G,
		Original: s.Original,
		Radii:    s.Radii,
	}, engine, s.Rho)
	if err != nil {
		return nil, err
	}
	if len(s.Landmarks) > 0 {
		// Restore persisted ALT landmark vectors (graphpack -landmarks)
		// so the loaded solver serves goal-directed routes immediately.
		if err := sol.SetLandmarkData(s.Landmarks, s.LandmarkDist); err != nil {
			return nil, fmt.Errorf("radiusstep: snapshot landmarks: %w", err)
		}
	}
	return sol, nil
}

// autoThreshold: below this many arcs EngineAuto runs the sequential
// engine, for full and target queries alike. It was measured against
// the parallel engine at k = 1; the flat engine's crossover is lower and
// moves with k.
const autoThreshold = 1 << 17

// resolve maps an engine request to a concrete engine: EngineAuto falls
// back to the solver's configured engine, and a still-auto choice picks
// by graph size.
func (s *Solver) resolve(e Engine) Engine {
	if e == EngineAuto {
		e = s.engine
	}
	if e == EngineAuto {
		if s.pre.Graph.NumArcs() >= autoThreshold {
			return EngineFlat
		}
		return EngineSequential
	}
	return e
}

// engineKind maps the public Engine enum onto the framework's kinds.
// Engine must already be resolved (not EngineAuto).
func engineKind(e Engine) (core.EngineKind, error) {
	switch e {
	case EngineSequential:
		return core.KindSequential, nil
	case EngineParallel:
		return core.KindParallel, nil
	case EngineFlat:
		return core.KindFlat, nil
	case EngineDelta:
		return core.KindDelta, nil
	case EngineRho:
		return core.KindRho, nil
	default:
		return 0, fmt.Errorf("radiusstep: unknown engine %d", int(e))
	}
}

// Distances returns the shortest-path distances from src on the original
// metric (+Inf for unreachable vertices) and the round statistics, using
// the solver's configured engine.
func (s *Solver) Distances(src Vertex) ([]float64, Stats, error) {
	return s.DistancesWith(src, EngineAuto)
}

// DistancesWith is Distances with a per-query engine override:
// EngineAuto means "no override" (the solver's configured engine
// applies); any other value selects that engine for this query only.
// Every engine returns identical distances, so overrides are safe to
// mix freely.
func (s *Solver) DistancesWith(src Vertex, engine Engine) ([]float64, Stats, error) {
	r, err := s.Solve(context.TODO(), Query{Source: src, Engine: engine})
	return r.Dist, r.Stats, err
}

// DistancesTraced is DistancesWith plus the solve's Timeline (see
// Query.Trace).
func (s *Solver) DistancesTraced(src Vertex, engine Engine) ([]float64, Stats, *Timeline, error) {
	r, err := s.Solve(context.TODO(), Query{Source: src, Engine: engine, Trace: true})
	return r.Dist, r.Stats, r.Timeline, err
}
