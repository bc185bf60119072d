package core

import (
	"fmt"
	"math"
	"time"

	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
	"radiusstep/internal/trace"
)

// EngineKind identifies one engine of the unified stepping framework: a
// fringe structure plus a step-target rule plus a relax kernel. All
// kinds share one driver (the solve function below) and differ only in
// how reached-but-unsettled vertices are tracked and how each step's
// settling threshold d_i is chosen:
//
//	KindSequential  lazy-heap fringe, radius rule, sequential relax
//	KindParallel    ordered frontier (Q/R runs), radius rule, parallel relax
//	KindFlat        flat fringe, radius rule, parallel relax
//	KindDelta       flat fringe, Δ bucket-ceiling rule, parallel relax
//	KindRho         ordered frontier, ρ-quota rank rule, parallel relax
//
// The first three are Radius-Stepping (Algorithms 1/2 and §3.4 of the
// paper) and produce identical step and substep counts. KindDelta and
// KindRho are the Δ- and ρ-stepping strategies of the stepping-algorithm
// family (Dong et al., "Efficient Stepping Algorithms and
// Implementations for Parallel Shortest Paths"): they ignore the radii
// and instead pick d_i from a fixed bucket width or a per-step vertex
// quota. Every kind returns identical distances; only the round
// structure (and therefore performance) differs.
type EngineKind int

const (
	KindSequential EngineKind = iota
	KindParallel
	KindFlat
	KindDelta
	KindRho
)

// String names the kind; the names appear in Stats.Engine and in the
// daemon's per-engine solve counters.
func (k EngineKind) String() string {
	switch k {
	case KindSequential:
		return "sequential"
	case KindParallel:
		return "parallel"
	case KindFlat:
		return "flat"
	case KindDelta:
		return "delta"
	case KindRho:
		return "rho"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Params tunes the radius-free stepping strategies and the relaxation
// substrate. The zero value selects sensible defaults for everything.
type Params struct {
	// Rho is the ρ-stepping extraction quota (KindRho): each step
	// settles (at least) the ρ closest fringe vertices. <= 0 selects 32.
	// Rho is only the STARTING quota: an adaptive rule grows it when
	// steps settle too few vertices (see rhoStepper), cutting step
	// counts on large fringes while keeping distances exact.
	Rho int
	// Recorder, when non-nil, receives a per-step/per-substep timeline
	// of the solve (see internal/trace). nil — the default and the hot
	// path — adds a single pointer comparison per instrumentation site
	// and zero allocations; the CI alloc gates depend on that.
	Recorder *trace.Recorder
	// Bound, when non-nil on a target-mode solve (SolveTarget), is
	// an admissible lower bound on the remaining distance from v to the
	// solve's target: Bound(v) <= true d(v, target) for every v, with 0
	// meaning "unknown" and +Inf asserting the target is unreachable
	// from v. Relaxations whose optimistic total d(u)+w+Bound(v)
	// strictly exceeds the target's current upper bound are skipped and
	// counted in Stats.Pruned; admissibility guarantees no relaxation
	// on a shortest path to the target is ever skipped, so the target
	// distance is byte-identical to the unpruned solve's (remaining
	// entries of the distance vector may be looser upper bounds than an
	// unpruned target solve would leave). Full solves (no target)
	// ignore the hook. The relax kernels call Bound directly, once per
	// frontier vertex they expand and once per candidate that improves
	// a distance, from multiple goroutines concurrently: it must be
	// cheap, pure, and safe for concurrent use. It must also be
	// consistent (Bound(u) <= w(u,v) + Bound(v) for every arc), which
	// lets a kernel skip a whole adjacency when Bound fails at its
	// source.
	Bound func(v graph.V) float64
	// UpperBound primes the target's upper bound before the first
	// substep (for ALT, the landmark estimate min_L d(L,s)+d(L,t) >=
	// d(s,t)), so pruning bites before any relaxation reaches the
	// target. It must be a true upper bound on d(src, target); <= 0
	// means none. Consulted only when Bound is non-nil.
	UpperBound float64
	// Probe, when non-nil, lets the caller cooperatively abort the
	// solve: the driver polls it once per step and substep, and the
	// relax kernels poll it every ~probeArcInterval scanned arcs, so
	// even one enormous substep notices quickly. When the probe has
	// fired the solve unwinds with its typed error (ErrCanceled or
	// ErrDeadline) and no distance vector; the workspace stays valid
	// for pooled reuse. nil — the default and the hot path — costs a
	// pointer comparison per poll site and zero allocations, so the
	// alloc gates and latency baselines hold unchanged.
	Probe *Probe
}

// NewTraceRecorder returns a solve-trace recorder wired to the worker
// pool's process-global counters, ready to pass as Params.Recorder.
func NewTraceRecorder() *trace.Recorder {
	return trace.NewRecorder(func() trace.PoolDelta {
		pc := parallel.ReadPoolCounters()
		return trace.PoolDelta{
			Forks:          pc.Forks,
			Dispatched:     pc.Dispatched,
			Inline:         pc.Inline,
			WorkersCreated: pc.Created,
			Parks:          pc.Parks,
			WakeNanos:      pc.WakeNanos,
			BarrierNanos:   pc.BarrierNanos,
			Claims:         pc.Claims,
		}
	})
}

// defaultRhoQuota mirrors the default preprocessing ball size: steps
// settle about as many vertices as one ball holds.
const defaultRhoQuota = 32

// DefaultDelta derives KindDelta's Δ-stepping bucket width from the
// graph: L/d̄ (the largest edge weight over the mean degree), the
// Meyer–Sanders guidance of Δ = Θ(1/d) for weights normalized to
// [0, L]. Degenerate graphs (no edges, all-zero weights) get Δ = 1; any
// positive width is correct there.
func DefaultDelta(g *graph.CSR) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 1
	}
	dbar := float64(g.NumArcs()) / float64(n)
	if dbar < 1 {
		dbar = 1
	}
	d := g.MaxWeight() / dbar
	if !(d > 0) {
		return 1
	}
	return d
}

// stepper is the strategy half of the framework: it owns the fringe
// (reached-but-unsettled vertices) and chooses each step's settling
// threshold d_i. The driver owns everything else — the distance array,
// the Bellman–Ford substep loop, settling, stamps, and statistics — so a
// new stepping strategy is only a fringe structure plus a target rule.
type stepper interface {
	// reset prepares the fringe for a new solve (the workspace has
	// already been prepared, so sizes and radii are current).
	reset()
	// seed enters the source's relaxed neighbors (unique, unsettled,
	// with final tentative distances) into the fringe.
	seed(vs []graph.V)
	// target picks the next step: the threshold d_i and the lead vertex
	// attaining it. ok=false ends the solve (fringe exhausted).
	target() (di float64, lead graph.V, ok bool)
	// collect removes every fringe vertex with δ(v) <= di, appending it
	// to dst. It must tolerate stale (settled) fringe entries.
	collect(di float64, dst []graph.V) []graph.V
	// push records that v's distance improved to d with d > d_i: v
	// enters the fringe, or moves if already present.
	push(v graph.V, d float64)
	// settle removes v from the fringe if present: a substep improved v
	// to δ(v) <= d_i, so it joins the active set instead.
	settle(v graph.V)
	// fringe reports the fringe population for the step trace. May
	// overcount structures that keep stale entries (the lazy heaps and
	// the flat array); exactness is not required — the value only
	// annotates trace records.
	fringe() int
}

// timedStepper is implemented by steppers whose fringe structure can
// stamp phase timings (the frontier-backed ones); the driver switches
// timing on exactly when a trace recorder is attached.
type timedStepper interface {
	setTiming(on bool)
}

// stepperFor returns the workspace's cached stepper for kind, creating
// and configuring it as needed.
func (ws *Workspace) stepperFor(kind EngineKind, p Params) stepper {
	switch kind {
	case KindSequential:
		if ws.hp == nil {
			ws.hp = &heapStepper{ws: ws}
		}
		return ws.hp
	case KindParallel:
		if ws.fs == nil {
			ws.fs = &frontierStepper{ws: ws}
		}
		return ws.fs
	case KindRho:
		if ws.rh == nil {
			ws.rh = &rhoStepper{ws: ws}
		}
		r := ws.rh
		r.quota0 = p.Rho
		if r.quota0 <= 0 {
			r.quota0 = defaultRhoQuota
		}
		return r
	default: // the flat-fringe family: flat, delta
		if ws.fl == nil {
			ws.fl = &flatStepper{ws: ws}
		}
		f := ws.fl
		f.kind = kind
		if kind == KindDelta {
			f.delta = DefaultDelta(ws.g)
		}
		return f
	}
}

// usesRadii reports whether kind consults the per-vertex radii. The
// radius-free strategies accept nil radii.
func (k EngineKind) usesRadii() bool {
	return k == KindSequential || k == KindParallel || k == KindFlat
}

// SolveKind computes shortest-path distances from src with the given
// engine kind, reusing ws when non-nil (pass nil for a one-shot solve).
// For the radius-free kinds (KindDelta, KindRho) radii may be nil.
// SolveKind and SolveTarget check the radii's length but not their
// values: the caller passes radii that meet graph.CheckRadii, as a
// Solver's are checked when it is built.
func SolveKind(g *graph.CSR, radii []float64, src graph.V, kind EngineKind, p Params, ws *Workspace) ([]float64, Stats, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	st, err := solve(g, radii, src, kind, p, ws, -1)
	if err != nil {
		return nil, st, err
	}
	dist := make([]float64, len(ws.bits))
	for v, b := range ws.bits {
		dist[v] = parallel.FromBits(b)
	}
	return dist, st, nil
}

// SolveTarget is SolveKind with early termination: the solve stops as
// soon as target is settled (its distance is then exact — the settled
// set is always correct, Theorem 3.1, and the same invariant holds for
// every stepping strategy). The partial distance vector stays in ws
// (which must be non-nil), readable through ws.Dist until ws's next
// solve: remaining distances are tentative upper bounds or +Inf.
func SolveTarget(g *graph.CSR, radii []float64, src, target graph.V, kind EngineKind, p Params, ws *Workspace) (float64, Stats, error) {
	if target < 0 || int(target) >= g.NumVertices() {
		return 0, Stats{}, fmt.Errorf("core: target %d out of range [0,%d)", target, g.NumVertices())
	}
	st, err := solve(g, radii, src, kind, p, ws, target)
	if err != nil {
		return 0, Stats{}, err
	}
	return ws.Dist(target), st, nil
}

// solve is the unified driver behind every engine. One outer loop asks
// the stepper for the step target d_i, extracts the active set A =
// {v : δ(v) <= d_i}, and runs synchronous Bellman–Ford substeps over A
// until no relaxation lands at or below d_i; improvements beyond d_i go
// back to the stepper's fringe. When stopAt >= 0 the solve ends as soon
// as that vertex is settled. The distances stay in ws.
func solve(g *graph.CSR, radii []float64, src graph.V, kind EngineKind, p Params, ws *Workspace, stopAt graph.V) (Stats, error) {
	if kind < KindSequential || kind > KindRho {
		return Stats{}, fmt.Errorf("core: unknown engine kind %d", int(kind))
	}
	if radii == nil && !kind.usesRadii() {
		if err := validateSrc(g, src); err != nil {
			return Stats{}, err
		}
	} else if err := validate(g, radii, src); err != nil {
		return Stats{}, err
	}
	ws.prepare(g, radii)
	sp := ws.stepperFor(kind, p)
	sp.reset()

	// Cooperative cancellation: the probe is (re)set on every solve so a
	// pooled workspace never inherits a fired probe from an earlier
	// canceled solve. A probe that fired before the solve even started
	// aborts here, before the seed relaxation touches anything.
	probe := p.Probe
	ws.probe = probe
	if err := probe.Err(); err != nil {
		return Stats{Engine: kind.String()}, err
	}

	// Goal-directed pruning: the Bound hook is honored only when the
	// solve has a target to prune toward. The hook and its upper bound
	// are (re)set on every solve so a pooled workspace never inherits a
	// stale bound from an earlier target solve.
	ws.bound = nil
	if stopAt >= 0 && p.Bound != nil {
		ws.bound = p.Bound
		ws.boundTarget = stopAt
		ws.ubPrior = math.Inf(1)
		if p.UpperBound > 0 {
			ws.ubPrior = p.UpperBound
		}
	}

	// Solve tracing: rec == nil (the hot path) keeps every site below a
	// pointer comparison. Fringe timing is (re)set on every solve so a
	// pooled workspace that served a traced solve does not keep paying
	// for clock reads afterwards.
	rec := p.Recorder
	if ts, ok := sp.(timedStepper); ok {
		ts.setTiming(rec != nil)
	}
	if rec != nil {
		rec.Begin(kind.String(), int64(src))
	}

	var st Stats
	st.Engine = kind.String()
	seq := kind == KindSequential
	ws.bits[src] = parallel.ToBits(0)
	ws.done[src] = true
	ws.track(src)

	// Relax the source's neighbors (Algorithm 1, line 2) and seed the
	// fringe with the unique improved vertices at their final distances.
	{
		adj, wts := g.Neighbors(src)
		st.EdgesScanned += int64(len(adj))
		for i, v := range adj {
			if parallel.WriteMin(&ws.bits[v], parallel.ToBits(wts[i])) {
				st.Relaxations++
			}
		}
		// Dedup multi-edges with a fresh substep stamp (the act array
		// cannot serve here: its seed marks would survive into the next
		// solve's seed under the monotonic-stamp scheme).
		seedMark := ws.nextSubID()
		seedList := ws.active[:0]
		for _, v := range adj {
			if v != src && ws.sub[v] != seedMark {
				ws.sub[v] = seedMark
				seedList = append(seedList, v)
			}
		}
		ws.track(seedList...)
		sp.seed(seedList)
		ws.active = seedList
	}

	active := ws.active[:0]
	frontier := ws.frontier[:0]
	next := ws.next[:0]
	stepNo := 0

	// Traced solves stamp phase boundaries with the wall clock; the
	// zero-value times are never read when rec is nil.
	var stepStart, phaseStart time.Time
	var srec trace.StepRecord
	var solveErr error
steps:
	for {
		// Per-step probe poll: between steps every structure is at a
		// clean boundary, so this is the cheapest abort point.
		if solveErr = probe.Err(); solveErr != nil {
			break
		}
		if rec != nil {
			stepStart = rec.Now()
			phaseStart = stepStart
			srec = trace.StepRecord{FringeLen: sp.fringe()}
		}
		di, lead, ok := sp.target()
		if !ok {
			break
		}
		step := ws.nextStep()
		stepNo++
		st.Steps++
		if rec != nil {
			srec.TargetNanos = time.Since(phaseStart).Nanoseconds()
			phaseStart = rec.Now()
		}

		// Extract A = {v : δ(v) <= d_i} from the fringe.
		active = sp.collect(di, active[:0])
		for _, v := range active {
			ws.act[v] = step
		}
		if rec != nil {
			srec.CollectNanos = time.Since(phaseStart).Nanoseconds()
		}

		// Bellman–Ford substeps: relax from changed vertices only; a
		// round producing no δ(v) <= d_i update is the last. Improved
		// vertices at or below d_i join A (leaving the fringe); the rest
		// enter or move within the fringe.
		frontier = append(frontier[:0], active...)
		substeps := 0
		for len(frontier) > 0 {
			// Per-substep probe poll; the relax kernels additionally poll
			// mid-substep (every ~probeArcInterval arcs / one claim
			// chunk), so a fired probe is noticed promptly even inside
			// one huge substep — the kernel bails early and this check
			// unwinds the solve.
			if solveErr = probe.Err(); solveErr != nil {
				break steps
			}
			substeps++
			ws.nextSubID()
			var scanned0, relaxed0 int64
			if rec != nil {
				scanned0, relaxed0 = st.EdgesScanned, st.Relaxations
				phaseStart = rec.Now()
			}
			updated := ws.relax(frontier, &st, seq)
			if rec != nil {
				dur := time.Since(phaseStart).Nanoseconds()
				srec.RelaxNanos += dur
				rec.Substep(trace.SubstepRecord{
					Step:        stepNo,
					Substep:     substeps,
					Mode:        "push",
					Workers:     ws.workers,
					FrontierLen: len(frontier),
					ArcsScanned: st.EdgesScanned - scanned0,
					Relaxed:     st.Relaxations - relaxed0,
					Nanos:       dur,
				})
			}
			ws.track(updated...)
			next = next[:0]
			for _, v := range updated {
				nd := parallel.FromBits(ws.bits[v])
				if nd <= di {
					if ws.act[v] != step {
						ws.act[v] = step
						active = append(active, v)
						sp.settle(v)
					}
					next = append(next, v)
				} else {
					sp.push(v, nd)
				}
			}
			frontier, next = next, frontier
		}

		st.Substeps += substeps
		if substeps > st.MaxSubsteps {
			st.MaxSubsteps = substeps
		}
		if len(active) > st.MaxStep {
			st.MaxStep = len(active)
		}
		for _, v := range active {
			ws.done[v] = true
		}
		if rec != nil {
			srec.Step = stepNo
			srec.Di = di
			srec.Lead = int64(lead)
			srec.Settled = len(active)
			srec.Substeps = substeps
			srec.Nanos = time.Since(stepStart).Nanoseconds()
			rec.Step(srec)
		}
		if stopAt >= 0 && ws.done[stopAt] {
			break
		}
	}
	ws.active, ws.frontier, ws.next = active[:0], frontier[:0], next[:0]
	if fb, ok := sp.(frontierBacked); ok {
		st.Frontier = fb.frontierOps()
	}
	if r, ok := sp.(*rhoStepper); ok {
		st.QuotaAdjustments = r.adjusts
	}
	if rec != nil {
		rec.End(st.Steps, st.Substeps, st.Relaxations, trace.FrontierPhases{
			FilterNanos: st.Frontier.FilterNanos,
			SortNanos:   st.Frontier.SortNanos,
			MergeNanos:  st.Frontier.MergeNanos,
		})
	}
	if solveErr != nil {
		// Aborted solves return the typed cancellation error and no
		// distances. The workspace needs no special cleanup: the touched
		// list stays marked incomplete, so the next prepare re-fills the
		// distances and settled marks in full, the stamp arrays
		// (act/sub/seen) are invalidated by the next stamps, and
		// each stepper's reset() rebuilds its fringe.
		return st, solveErr
	}
	ws.complete = !ws.overflow
	return st, nil
}
