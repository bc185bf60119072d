package core

import (
	"sort"
	"sync/atomic"

	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// forkArcs is the relax's fork gate: a substep whose frontier has fewer
// outgoing arcs runs the scalar push on the caller, because waking a
// parked worker and joining it back costs about as much as relaxing
// tens of thousands of arcs. Swept at 16k, 32k, 64k and 128k
// (flat engine, k = 4, ρ = 32, 50k-vertex road and rmat graphs,
// GOMAXPROCS=2 on a 2-vCPU VM), the median p50 fell from 15.6 ms without
// the gate to 9.6–11.4 ms on road, where most substeps hold a few
// thousand arcs whatever the gate, and from 20.1 to 17.3–18.6 ms on
// rmat, lowest at 64k. Wider hosts were not measured: a substep that
// clears the gate forks on every proc. The relax is the one place a
// flat or delta solve forks (a sequential one never does), so this gate
// alone decides when such a solve goes parallel.
const forkArcs = 64 << 10

// Claim-grain bounds for the edge-balanced push. Workers claim
// consecutive chunks of arc space, so a skewed frontier (one hub plus
// many leaves) still splits evenly — the hub's arc range is shared
// between workers instead of serializing on one. The chunk size itself
// is adaptive (see adaptiveGrain): a fixed grain either starves balance
// on small substeps (too few chunks to share) or drowns large ones in
// claim traffic (one atomic add per chunk).
const (
	arcGrainMin = 512
	arcGrainMax = 8192
)

// adaptiveGrain sizes a dynamic claim chunk for total arcs split across
// the current worker count: aim for ~8 chunks per worker — enough slack
// for dynamic balancing when per-chunk costs vary, few enough that
// claim-counter traffic stays negligible — clamped to [arcGrainMin,
// arcGrainMax] so tiny substeps keep chunks worth dispatching and huge
// ones don't widen the straggler tail.
func adaptiveGrain(total int) int {
	g := total / (parallel.Procs() * 8)
	if g < arcGrainMin {
		return arcGrainMin
	}
	if g > arcGrainMax {
		return arcGrainMax
	}
	return g
}

// ubSlack widens the target-mode prune threshold by one part in 1e9.
// Tentative distances are float path sums carrying up to ~1 ulp of
// rounding per edge (2^-53 relative, so well under 1e-9 for any
// realistic path), and the prune test compares such sums against each
// other: without the widening, a path whose float sum is minimal could
// be pruned because rounding noise pushed its prefix a few ulps above
// the target's current bound. The slack makes the comparison immune to
// that noise — pruned solves stay byte-identical to unpruned ones —
// while admitting only candidates within 1e-9 relative of the bound,
// a vanishing loss of pruning power.
const ubSlack = 1e-9

// touchedDiv sets the touched-list cap at n/touchedDiv vertices. Below
// the cap the next solve resets only the vertices this one wrote; above
// it the list stops growing and the next solve does the O(n) fill. The
// cap is sized so that routes stay under it: over 300 pruned routes to
// targets 50 hops away on the serving benchmark's road-route graph
// (49,160 vertices, BFS order, 8 landmarks) the median route touched
// 4,034 vertices, the p90 6,019 and the largest 8,300, so 23 routes
// passed n/8 and none n/4. The touched count where a partial reset
// stops beating the fill has not been measured. A full solve touches
// every vertex it reaches, so it passes the cap unless its source lies
// in a component of at most n/4 vertices.
const touchedDiv = 4

// Workspace holds every buffer a solve needs — the distance bits, the
// settled/stamp arrays, the frontier lists, and per-stepper fringe
// structures. A zero workspace is ready to use; reusing one across
// solves (a Solver keeps an idle list of them) makes repeated queries
// allocation-free in steady state, which is the hot path a serving
// daemon's cache misses pay. A Workspace is not safe for concurrent
// use; keep one per in-flight solve.
//
// Buffers are grow-only: a workspace that served a large graph keeps its
// capacity when later solving a small one, and all slices are re-sliced
// to the current vertex count on prepare.
//
// A solve records the vertices whose distance or settled mark it wrote
// (the touched list), so a target query that explores a small ball
// leaves a small reset for the next solve on the same graph.
type Workspace struct {
	g     *graph.CSR
	radii []float64

	bits []uint64 // tentative distances as priority-write float bits
	done []bool   // settled in an earlier step
	act  []uint32 // == step stamp: joined the active set this step
	sub  []uint32 // substep claim stamps (one improvement report per substep)
	seen []uint32 // per-step fringe dedup for the flat-fringe steppers

	active, frontier, next, updated []graph.V
	snap                            []float64 // frontier-indexed Jacobi distance snapshot
	degOff                          []int64   // frontier degree prefix sums (edge-balanced push)
	parts                           []workerBuf

	// bound, when non-nil, is the target-mode goal-direction hook
	// (Params.Bound): an admissible lower bound on the remaining
	// distance from a vertex to boundTarget. ubPrior is the a-priori
	// upper bound on d(src, boundTarget) (+Inf when none); ub is the
	// per-substep snapshot min(ubPrior, δ(boundTarget)) that relax
	// paths prune against — snapshotted once per substep so pruning
	// decisions are deterministic and free of cross-worker reads. The
	// driver resets bound on every solve. The relax kernels call bound
	// directly, once per frontier vertex and once per improving
	// candidate: a per-vertex cache of its values would cost two random
	// reads per lookup, as many as a two-landmark bound reads.
	bound       func(graph.V) float64
	boundTarget graph.V
	ubPrior     float64
	ub          float64

	// probe is the current solve's cooperative-cancellation probe
	// (Params.Probe), reset by the driver on every solve; nil on the
	// hot path. The relax kernels poll it mid-substep — every
	// ~probeArcInterval scanned arcs in the scalar push, once per
	// claim chunk in the parallel push — and bail out of the substep
	// early when it has fired; the driver then unwinds the solve. A
	// bailed substep may leave the frontier bookkeeping short, which is
	// fine: the partial state is never read again (the driver returns
	// an error, and the next solve re-prepares everything).
	probe *Probe

	hp *heapStepper
	fs *frontierStepper
	rh *rhoStepper
	fl *flatStepper

	step    uint32 // current step stamp (1-based within a solve)
	subID   uint32 // current substep stamp
	solveID uint32 // current solve stamp (mark)

	// touched lists each vertex whose bits or done entry the current
	// solve wrote, once (mark[v] == solveID), up to n/touchedDiv
	// entries; overflow records that the list stopped short. complete
	// says the last solve finished with its list whole, so bits and
	// done differ from their reset values only at touched — the
	// condition for prepare's partial reset. prepare clears it, and
	// only a solve that returns without error sets it again.
	touched  []graph.V
	mark     []uint32
	overflow bool
	complete bool

	// workers is the participant count of the latest relax (1: it ran
	// on the caller without a fork), read by the solve trace.
	workers int

	// forkAll sends every substep of a parallel kind to pushPar, however
	// few arcs its frontier has, so tests can drive the parallel kernel
	// on small graphs. Only this package's tests set it.
	forkAll bool
}

// NewWorkspace returns an empty workspace. Buffers are sized lazily on
// first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// prepare re-slices every shared buffer to n vertices and resets the
// per-solve state: distances to +Inf, settled marks to false. When the
// workspace's last solve ran on the same graph and completed with its
// touched list whole, only the touched entries are reset; otherwise two
// O(n) fills do it. The stamp arrays are deliberately NOT cleared:
// ws.step, ws.subID and ws.solveID increase monotonically across the
// workspace's lifetime, so a stamp written by an earlier solve can never
// equal a current one (freshly grown arrays are zero and stamps start at
// 1). nextStep/nextSubID/nextSolve re-zero an array on the
// once-per-4-billion wraparound.
func (ws *Workspace) prepare(g *graph.CSR, radii []float64) {
	n := g.NumVertices()
	partial := ws.complete && ws.g == g
	ws.g, ws.radii = g, radii
	ws.bits = sized(ws.bits, n)
	ws.done = sized(ws.done, n)
	if partial {
		for _, v := range ws.touched {
			ws.bits[v] = parallel.InfBits
			ws.done[v] = false
		}
	} else {
		for i := range ws.bits {
			ws.bits[i] = parallel.InfBits
		}
		clear(ws.done)
	}
	ws.complete, ws.overflow = false, false
	ws.touched = ws.touched[:0]
	ws.nextSolve()
	ws.mark = sized(ws.mark, n)
	ws.act = sized(ws.act, n)
	ws.sub = sized(ws.sub, n)
	ws.seen = sized(ws.seen, n)
}

// track adds each vertex of vs to the touched list unless it is already
// there. A list that would pass n/touchedDiv entries stops growing and
// records the overflow, and the next prepare does the full fill.
func (ws *Workspace) track(vs ...graph.V) {
	if ws.overflow {
		return
	}
	id, limit := ws.solveID, len(ws.bits)/touchedDiv
	for _, v := range vs {
		if ws.mark[v] == id {
			continue
		}
		if len(ws.touched) == limit {
			ws.overflow = true
			return
		}
		ws.mark[v] = id
		ws.touched = append(ws.touched, v)
	}
}

// Dist returns v's distance as the workspace's last solve left it.
func (ws *Workspace) Dist(v graph.V) float64 {
	return parallel.FromBits(ws.bits[v])
}

// nextStep advances the step stamp, clearing the step-stamped arrays on
// wraparound so stale stamps can never collide with a new step.
func (ws *Workspace) nextStep() uint32 {
	if ws.step == ^uint32(0) {
		clear(ws.act)
		clear(ws.seen)
		ws.step = 0
	}
	ws.step++
	return ws.step
}

// nextSolve advances the solve stamp. On wraparound it drops the
// solve-stamped mark array, whose old stamps could collide with new
// ones; prepare re-grows it zeroed.
func (ws *Workspace) nextSolve() {
	if ws.solveID == ^uint32(0) {
		ws.mark = nil
		ws.solveID = 0
	}
	ws.solveID++
}

// nextSubID advances the substep claim stamp, likewise clearing the
// claim-stamped arrays on wraparound.
func (ws *Workspace) nextSubID() uint32 {
	if ws.subID == ^uint32(0) {
		clear(ws.sub)
		ws.subID = 0
	}
	ws.subID++
	return ws.subID
}

// sized returns s with length exactly n, reusing capacity when possible.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// workerBuf is one worker's improved-vertex buffer, padded so adjacent
// workers' slice headers sit on distinct cache lines. Workers append to
// their buffer inside every parallel substep and write the header back
// when the claim loop drains; with bare slice headers (24 bytes) two or
// three workers share a line and those writebacks — plus the appends'
// header reloads — false-share at substep frequency. The 40-byte pad
// rounds each header up to one 64-byte line.
type workerBuf struct {
	buf []graph.V
	_   [64 - 24]byte
}

// growParts makes sure ws.parts has at least p per-worker buffers,
// PRESERVING the buffers that already exist: their grown capacity is the
// point of pooling them, so reallocation must never drop them (append
// keeps the old prefix and adds empty slots for the new workers).
func (ws *Workspace) growParts(p int) []workerBuf {
	for len(ws.parts) < p {
		ws.parts = append(ws.parts, workerBuf{})
	}
	return ws.parts[:p]
}

// mergeParts concatenates the per-worker buffers into ws.updated and
// resets every buffer to length zero, so a later substep that runs fewer
// workers can never re-merge a stale buffer from this one.
func (ws *Workspace) mergeParts(parts []workerBuf) []graph.V {
	out := ws.updated[:0]
	for w := range parts {
		out = append(out, parts[w].buf...)
		parts[w].buf = parts[w].buf[:0]
	}
	ws.updated = out
	return out
}

// relax runs one synchronous Bellman–Ford substep over frontier and
// returns the vertices whose distance improved, each reported once. The
// substep is Jacobi-style: source distances are snapshotted before any
// relaxation, so results (and therefore step/substep counts) are
// deterministic and identical across both kernels and every parallelism
// degree.
//
// The scalar pushSeq runs on the caller for the sequential engine (seq),
// at GOMAXPROCS=1, and for a frontier below forkArcs outgoing arcs; every
// other substep runs the edge-balanced pushPar.
func (ws *Workspace) relax(frontier []graph.V, st *Stats, seq bool) []graph.V {
	if ws.bound != nil {
		// One upper-bound snapshot per substep: the best known distance
		// to the target. Reading δ(target) here (between substeps, on
		// one goroutine) keeps the prune predicate a pure function of
		// the substep's Jacobi snapshot, so prune decisions — like the
		// distances themselves — do not depend on worker interleaving.
		ub := ws.ubPrior
		if td := parallel.FromBits(ws.bits[ws.boundTarget]); td < ub {
			ub = td
		}
		ws.ub = ub + ub*ubSlack
	}
	par := !seq && parallel.Procs() > 1
	if par && !ws.forkAll {
		par = ws.frontierArcsReach(frontier, forkArcs)
	}
	ws.workers = 1
	if !par {
		return ws.pushSeq(frontier, st)
	}
	return ws.pushPar(frontier, st)
}

// frontierArcsReach reports whether frontier has at least limit outgoing
// arcs, stopping the degree count once it does.
func (ws *Workspace) frontierArcsReach(frontier []graph.V, limit int64) bool {
	var arcs int64
	for _, u := range frontier {
		if arcs += int64(ws.g.Degree(u)); arcs >= limit {
			return true
		}
	}
	return false
}

// frontierDegOffSnap fills ws.degOff with the frontier's degree prefix
// sums (degOff[i] = arcs of frontier[:i]) and ws.snap with the
// frontier's Jacobi distance snapshot, in one loop on the caller, and
// returns the total arc count. The loop is O(frontier) against the
// O(arcs) relax that follows, so it stays off the pool: the relax's
// WorkersGrain is the substep's one fork.
func (ws *Workspace) frontierDegOffSnap(frontier []graph.V) int64 {
	degOff := sized(ws.degOff, len(frontier)+1)
	snap := sized(ws.snap, len(frontier))
	ws.degOff, ws.snap = degOff, snap
	var total int64
	for i, u := range frontier {
		degOff[i] = total
		total += int64(ws.g.Degree(u))
		snap[i] = parallel.FromBits(ws.bits[u])
	}
	degOff[len(frontier)] = total
	return total
}

// pushSeq is the scalar push substep: relax every arc out of frontier
// against a snapshot of the frontier's distances and return the vertices
// whose distance improved, each reported once.
func (ws *Workspace) pushSeq(frontier []graph.V, st *Stats) []graph.V {
	subID := ws.subID
	snap := sized(ws.snap, len(frontier))
	ws.snap = snap
	for i, u := range frontier {
		snap[i] = parallel.FromBits(ws.bits[u])
	}
	bnd, ub := ws.bound, ws.ub
	out := ws.updated[:0]
	var sinceProbe int
	for fi, u := range frontier {
		du := snap[fi]
		adj, wts := ws.g.Neighbors(u)
		// Mid-substep cancellation poll at arc granularity: a frontier
		// of hubs can scan millions of arcs in one substep, and the
		// per-substep poll alone would notice a cancel far too late.
		if sinceProbe += len(adj); sinceProbe >= probeArcInterval {
			sinceProbe = 0
			if ws.probe.Fired() {
				break
			}
		}
		// Expansion-time prune: if u itself cannot lie on a path that
		// beats the target bound, none of its relaxations can — the
		// landmark bound is consistent (|lb(u) - lb(v)| <= w(u,v)), so
		// every arc out of u would fail the write-time test anyway.
		// Skipping the whole adjacency here is what turns pruning into
		// saved scan work rather than just saved writes.
		if bnd != nil && du+bnd(u) > ub {
			st.Pruned += int64(len(adj))
			continue
		}
		st.EdgesScanned += int64(len(adj))
		for j, v := range adj {
			if ws.done[v] {
				continue
			}
			nd := du + wts[j]
			if nd >= parallel.FromBits(ws.bits[v]) {
				continue
			}
			// The improvement test runs first: it is one load, cheaper than
			// a call to the hook, and a candidate is written iff it
			// improves AND survives the bound — order-free.
			if bnd != nil && nd+bnd(v) > ub {
				st.Pruned++
				continue
			}
			ws.bits[v] = parallel.ToBits(nd)
			st.Relaxations++
			if ws.sub[v] != subID {
				ws.sub[v] = subID
				out = append(out, v)
			}
		}
	}
	ws.updated = out
	return out
}

// pushPar is the edge-balanced parallel push substep. It builds the
// frontier's degree prefix (ws.degOff) and Jacobi snapshot (ws.snap) in
// one loop on the caller (frontierDegOffSnap). The prefix partitions the
// concatenated arc ranges into adaptively-sized chunks that workers
// claim dynamically, so a hub vertex's arcs split across workers instead
// of making one worker a straggler (safe because relaxation targets are
// claimed with atomic priority-writes, not by arc ownership). Improved
// vertices are claimed once per substep via CAS stamps into padded
// per-worker buffers.
func (ws *Workspace) pushPar(frontier []graph.V, st *Stats) []graph.V {
	totalArcs := ws.frontierDegOffSnap(frontier)
	subID := ws.subID
	parts := ws.growParts(parallel.Procs())
	snap := ws.snap
	bits := ws.bits
	degOff := ws.degOff
	bnd, ub := ws.bound, ws.ub

	var relaxed, scanned, pruned atomic.Int64
	grain := adaptiveGrain(int(totalArcs))
	ws.workers = parallel.WorkersGrain(int(totalArcs), grain, func(w int, claim func() (int, int, bool)) {
		local := parts[w].buf[:0]
		var rl, sc, pr int64
		for {
			alo, ahi, ok := claim()
			if !ok {
				break
			}
			// Per-chunk cancellation poll: chunks are 512–8192 arcs, the
			// same order as the scalar push's probeArcInterval. Workers
			// stop claiming and drain through the join barrier, so the
			// fork-join discipline (and the race-free merge) is intact.
			if ws.probe.Fired() {
				break
			}
			// First frontier index whose arc range reaches past alo.
			fi := sort.Search(len(frontier), func(i int) bool { return degOff[i+1] > int64(alo) })
			for ; fi < len(frontier) && degOff[fi] < int64(ahi); fi++ {
				u := frontier[fi]
				du := snap[fi]
				adj, wts := ws.g.Neighbors(u)
				lo, hi := int64(alo)-degOff[fi], int64(ahi)-degOff[fi]
				if lo < 0 {
					lo = 0
				}
				if hi > int64(len(adj)) {
					hi = int64(len(adj))
				}
				// Expansion-time prune (see pushSeq): a source vertex
				// that cannot beat the target bound contributes nothing;
				// skip its share of the claimed arc range wholesale.
				if bnd != nil && du+bnd(u) > ub {
					pr += hi - lo
					continue
				}
				sc += hi - lo
				for j := lo; j < hi; j++ {
					v := adj[j]
					nd := du + wts[j]
					if bnd != nil {
						// Monotone filter first: the cell only decreases,
						// so a candidate at or above the current value
						// would fail WriteMin anyway and needs no bound.
						if nd >= parallel.FromBits(atomic.LoadUint64(&bits[v])) {
							continue
						}
						if nd+bnd(v) > ub {
							pr++
							continue
						}
					}
					nb := parallel.ToBits(nd)
					if parallel.WriteMin(&bits[v], nb) {
						rl++
						if parallel.Claim(&ws.sub[v], subID) {
							local = append(local, v)
						}
					}
				}
			}
		}
		parts[w].buf = local
		relaxed.Add(rl)
		scanned.Add(sc)
		pruned.Add(pr)
	})
	st.Relaxations += relaxed.Load()
	st.EdgesScanned += scanned.Load()
	st.Pruned += pruned.Load()
	return ws.mergeParts(parts)
}
