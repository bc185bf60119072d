// Package trace implements the solve-trace recorder behind the
// observability layer: a per-step/per-substep timeline of one SSSP
// solve, plus deltas of the worker-pool and frontier-substrate
// instrumentation sampled around it.
//
// The recorder is designed around one invariant: tracing that is NOT
// requested must cost nothing. The stepping driver carries a *Recorder
// in its parameters; when it is nil every instrumentation site is a
// single pointer comparison and no clock is read, so the steady-state
// allocation and latency budgets of untraced solves are unchanged (the
// CI alloc gates enforce this). When a recorder IS attached, the driver
// stamps wall-clock boundaries around each phase of the step loop —
// target selection, frontier extraction, Bellman–Ford substeps — and
// the recorder appends fixed-size records to grow-only slices.
//
// A Recorder is single-solve, single-goroutine state: make one per
// traced solve (the traced paths are diagnostic, not hot). The
// resulting Timeline is the JSON body returned by the daemon's
// ?trace=1 query parameter, written by cmd/sssp -trace, and emitted per
// engine by radius-bench -trace.
//
// The package sits below every other internal package (it imports only
// the standard library), so core, frontier, parallel and server are all
// free to reference its types.
package trace

import "time"

// SubstepRecord times one Bellman–Ford substep (one synchronous
// relaxation round) inside a step.
type SubstepRecord struct {
	// Step is the 1-based index of the enclosing step.
	Step int `json:"step"`
	// Substep is the 1-based index within the step.
	Substep int `json:"substep"`
	// Mode is the relaxation direction the substep ran: "push"
	// (scatter from the frontier with priority-writes) or "pull"
	// (vertex-owned gather over the unsettled remainder).
	Mode string `json:"mode"`
	// Workers is the number of participants the substep's relax ran
	// with: 1 means it did not fork (under the default adaptive rule,
	// the scalar kernel on the caller), more means it woke Workers-1
	// pool workers or ran their shares inline when the pool was busy.
	Workers int `json:"workers"`
	// FrontierLen is the number of changed vertices relaxed from.
	FrontierLen int `json:"frontierLen"`
	// ArcsScanned counts arcs examined by this substep.
	ArcsScanned int64 `json:"arcsScanned"`
	// Relaxed counts successful distance improvements.
	Relaxed int64 `json:"relaxed"`
	// Nanos is the substep's wall time.
	Nanos int64 `json:"nanos"`
}

// StepRecord times one outer step (one round of the stepping
// algorithm).
type StepRecord struct {
	// Step is the 1-based step index.
	Step int `json:"step"`
	// Di is the step's settling threshold d_i.
	Di float64 `json:"di"`
	// Lead is the vertex attaining d_i (-1 if the engine reports
	// none).
	Lead int64 `json:"lead"`
	// FringeLen is the fringe population when the step began (before
	// extraction). Engines that do not track a materialized fringe
	// report 0.
	FringeLen int `json:"fringeLen"`
	// Settled is the number of vertices settled by the step.
	Settled int `json:"settled"`
	// Substeps is the number of Bellman–Ford substeps the step took.
	Substeps int `json:"substeps"`
	// TargetNanos is the time spent choosing d_i — for the
	// frontier-backed engines this includes the deferred Commit (batch
	// sort + run merges), which is why the frontier phase totals below
	// largely live inside it.
	TargetNanos int64 `json:"targetNanos"`
	// CollectNanos is the time spent extracting the active set
	// A = {v : δ(v) <= d_i}.
	CollectNanos int64 `json:"collectNanos"`
	// RelaxNanos is the summed wall time of the step's substeps.
	RelaxNanos int64 `json:"relaxNanos"`
	// Nanos is the step's total wall time (target + collect + substeps
	// + settling bookkeeping).
	Nanos int64 `json:"nanos"`
}

// PoolDelta is the change in the worker-pool counters
// (internal/parallel) across the traced solve: how many fork-joins ran,
// how many tasks woke parked workers and how long wake-up took, how
// long fork callers waited at join barriers, and how many batched work
// ranges workers claimed. The pool is process-global, so on a daemon
// with concurrent solves the delta attributes every pool event in the
// window to this solve — exact for single-solve tools (cmd/sssp,
// radius-bench), approximate under concurrency.
type PoolDelta struct {
	// Forks counts fork-join regions entered (parallel.For / Blocks /
	// Workers / Do).
	Forks int64 `json:"forks"`
	// Dispatched counts tasks handed to pool workers (the unpark
	// events); participants the pool could not serve ran inline on the
	// caller and are counted by Inline.
	Dispatched int64 `json:"dispatched"`
	// Inline counts participants the caller ran itself because the
	// pool was exhausted.
	Inline int64 `json:"inline"`
	// WorkersCreated counts new pool workers spawned in the window.
	WorkersCreated int64 `json:"workersCreated"`
	// Parks counts workers re-parking after finishing a task.
	Parks int64 `json:"parks"`
	// WakeNanos sums the send-to-execution latency over Dispatched
	// tasks: how long a woken worker took to actually start.
	WakeNanos int64 `json:"wakeNanos"`
	// BarrierNanos sums the time fork callers spent waiting at the
	// join barrier after finishing their own share.
	BarrierNanos int64 `json:"barrierNanos"`
	// Claims counts batched work ranges claimed by workers inside
	// fork-join regions (one claim per ~grain items).
	Claims int64 `json:"claims"`
}

// FrontierPhases is the ordered-frontier substrate's phase timing for
// the traced solve (zero for engines not built on internal/frontier):
// where Commit time went, split into the stale-entry filter pass, the
// batch sort sealing a run, and the size-tier run merges.
type FrontierPhases struct {
	FilterNanos int64 `json:"filterNanos"`
	SortNanos   int64 `json:"sortNanos"`
	MergeNanos  int64 `json:"mergeNanos"`
}

// Timeline is the complete trace of one solve — the JSON body behind
// ?trace=1, cmd/sssp -trace and radius-bench -trace.
type Timeline struct {
	Engine string `json:"engine"`
	Source int64  `json:"source"`
	// Steps / Substeps mirror the solve's Stats so a timeline is
	// self-describing (and so consistency is checkable: len(StepList)
	// == Steps, len(SubstepList) == Substeps).
	Steps       int             `json:"steps"`
	Substeps    int             `json:"substeps"`
	Relaxations int64           `json:"relaxations"`
	SolveNanos  int64           `json:"solveNanos"`
	StepList    []StepRecord    `json:"stepList"`
	SubstepList []SubstepRecord `json:"substepList"`
	Pool        PoolDelta       `json:"pool"`
	Frontier    FrontierPhases  `json:"frontier"`
}

// Recorder accumulates one solve's timeline. The zero value is ready to
// use; the driver calls the Begin/End and record methods. Not safe for
// concurrent use — one recorder per solve.
type Recorder struct {
	tl       Timeline
	start    time.Time
	poolPre  PoolDelta
	poolRead func() PoolDelta // sampled at Begin and End; nil skips pool deltas
}

// NewRecorder returns a recorder whose pool section is computed from
// poolRead deltas (pass nil to skip pool sampling).
func NewRecorder(poolRead func() PoolDelta) *Recorder {
	return &Recorder{poolRead: poolRead}
}

// Begin marks the solve start: engine, source, clock zero, and the
// pre-solve pool counter sample.
func (r *Recorder) Begin(engine string, source int64) {
	r.tl = Timeline{Engine: engine, Source: source}
	r.start = time.Now()
	if r.poolRead != nil {
		r.poolPre = r.poolRead()
	}
}

// Now returns the current time; the driver uses it so untraced solves
// never read the clock (the call sits behind the nil-recorder check).
func (r *Recorder) Now() time.Time { return time.Now() }

// Step appends one completed step record.
func (r *Recorder) Step(rec StepRecord) {
	r.tl.StepList = append(r.tl.StepList, rec)
}

// Substep appends one completed substep record.
func (r *Recorder) Substep(rec SubstepRecord) {
	r.tl.SubstepList = append(r.tl.SubstepList, rec)
}

// End finalizes the timeline with the solve's summary statistics and
// the frontier phase totals, samples the pool counters again, and
// returns the completed timeline. The returned pointer aliases the
// recorder's state; recorders are single-use.
func (r *Recorder) End(steps, substeps int, relaxations int64, fr FrontierPhases) *Timeline {
	r.tl.SolveNanos = time.Since(r.start).Nanoseconds()
	r.tl.Steps = steps
	r.tl.Substeps = substeps
	r.tl.Relaxations = relaxations
	r.tl.Frontier = fr
	if r.poolRead != nil {
		post := r.poolRead()
		r.tl.Pool = PoolDelta{
			Forks:          post.Forks - r.poolPre.Forks,
			Dispatched:     post.Dispatched - r.poolPre.Dispatched,
			Inline:         post.Inline - r.poolPre.Inline,
			WorkersCreated: post.WorkersCreated - r.poolPre.WorkersCreated,
			Parks:          post.Parks - r.poolPre.Parks,
			WakeNanos:      post.WakeNanos - r.poolPre.WakeNanos,
			BarrierNanos:   post.BarrierNanos - r.poolPre.BarrierNanos,
			Claims:         post.Claims - r.poolPre.Claims,
		}
	}
	return &r.tl
}

// Timeline returns the recorder's (possibly still accumulating)
// timeline.
func (r *Recorder) Timeline() *Timeline { return &r.tl }
