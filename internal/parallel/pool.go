package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The persistent worker pool behind the fork-join primitives.
//
// A solve forks in its relax, once for every Bellman–Ford substep large
// enough to share (core's fork gate runs smaller substeps on the
// caller, so no substep of a 50k-vertex road solve at k = 4 forks), and
// spawning fresh goroutines for each fork costs a stack allocation,
// scheduler churn, and WaitGroup traffic that can rival the useful work
// on small frontiers. Instead, the package keeps a small set of
// long-lived workers, each parked on a channel receive (the runtime
// parks the goroutine — the Go analogue of a futex wait) until a fork
// hands it a task. Waking a parked worker is a single
// channel send to an already-waiting receiver, an order of magnitude
// cheaper than goroutine creation, and steady-state fork-joins stop
// producing dead goroutines for the scheduler and GC to digest.
//
// Invariants:
//
//   - A fork never runs more than GOMAXPROCS participants concurrently
//     (the caller is always the +1th), so concurrent fork-joins share
//     the machine instead of oversubscribing it. The limit is read per
//     fork, so lowering GOMAXPROCS mid-process (radius-bench -procs)
//     immediately shrinks dispatch even though existing workers never
//     exit.
//   - A fork NEVER blocks waiting for a worker. If the pool is empty —
//     all workers busy serving other forks, possibly nested ones — the
//     caller runs the remaining participants itself, sequentially. Every
//     participant id in [0, n) runs exactly once either way, which is
//     what callers that index per-worker state by id rely on.
//   - Workers are created lazily and live for the life of the process;
//     an idle pool costs len(idle) parked goroutines and nothing else.
//
// The pool also feeds the observability layer: every fork/dispatch/park
// event and the wake and join-barrier latencies are counted into
// process-global atomics, sampled as deltas by the solve-trace recorder
// (internal/trace) and exported by the daemon's /metrics endpoint. The
// counter costs are a handful of atomic adds and two clock reads per
// DISPATCHED task — noise next to the channel send and scheduler handoff
// they annotate, and zero on the undispatched (GOMAXPROCS=1) path.
type task struct {
	body func(id int)
	wg   *sync.WaitGroup
	id   int
	sent time.Time // dispatch timestamp; wake latency = start - sent
}

var pool struct {
	mu   sync.Mutex
	idle []chan task // parked workers' inboxes, LIFO for cache warmth
	size int         // workers ever created (they never exit)
}

// paddedInt64 is an atomic counter alone on its cache line. The pool
// counters are written from different goroutines at different rates —
// claims by every worker inside a fork, wakeNanos/parks by workers,
// forks/joinNanos by fork callers — and as plain adjacent fields they
// all shared one or two cache lines, so every claim bounced the line
// under the hot counters written by other workers (false sharing). One
// line per counter keeps each writer's RFO traffic to the counters it
// actually touches. 64 bytes covers the destructive-interference range
// of current amd64/arm64 parts.
type paddedInt64 struct {
	atomic.Int64
	_ [56]byte
}

// poolStats are the process-global pool event counters. Monotonic;
// consumers read deltas. Each counter is cache-line padded; see
// paddedInt64.
var poolStats struct {
	_          [64]byte // keep the first counter off the preceding var's line
	forks      paddedInt64
	dispatched paddedInt64
	inline     paddedInt64
	created    paddedInt64
	parks      paddedInt64
	wakeNanos  paddedInt64
	joinNanos  paddedInt64
	claims     paddedInt64
}

// PoolCounters is a snapshot of the pool's cumulative event counters.
type PoolCounters struct {
	// Forks counts fork-join regions that dispatched at least one
	// participant decision (n > 1).
	Forks int64
	// Dispatched counts tasks handed to pool workers (unpark events).
	Dispatched int64
	// Inline counts participants run sequentially on the caller
	// because the pool was exhausted or the dispatch limit was reached.
	Inline int64
	// Created counts pool workers ever created.
	Created int64
	// Parks counts workers returning to the idle stack after a task.
	Parks int64
	// WakeNanos sums dispatch-to-execution latency over Dispatched.
	WakeNanos int64
	// BarrierNanos sums the callers' join-barrier wait time (after
	// finishing their own participant shares).
	BarrierNanos int64
	// Claims counts batched work-range claims handed out inside
	// fork-join regions (one per ~grain items).
	Claims int64
}

// ReadPoolCounters snapshots the cumulative pool counters. The
// counters are process-global: trace recorders read before/after deltas
// around a solve, and /metrics exports them directly.
func ReadPoolCounters() PoolCounters {
	return PoolCounters{
		Forks:        poolStats.forks.Load(),
		Dispatched:   poolStats.dispatched.Load(),
		Inline:       poolStats.inline.Load(),
		Created:      poolStats.created.Load(),
		Parks:        poolStats.parks.Load(),
		WakeNanos:    poolStats.wakeNanos.Load(),
		BarrierNanos: poolStats.joinNanos.Load(),
		Claims:       poolStats.claims.Load(),
	}
}

// workerLoop is the body of one pool worker: run a task, rejoin the idle
// stack, park again. The inbox has capacity 1 so re-parking (appending
// to idle before the next receive) never makes a sender block.
func workerLoop(ch chan task) {
	for t := range ch {
		poolStats.wakeNanos.Add(time.Since(t.sent).Nanoseconds())
		t.body(t.id)
		t.wg.Done()
		// Drop the closure reference before parking: fork bodies capture
		// solve state (workspaces, graph arrays), and an idle worker must
		// not pin its last fork's captures until the next task arrives.
		t = task{}
		_ = t
		pool.mu.Lock()
		pool.idle = append(pool.idle, ch)
		pool.mu.Unlock()
		poolStats.parks.Add(1)
	}
}

// fork runs body(id) for every id in [0, n), body(0) on the caller and
// the rest on parked pool workers, creating workers up to GOMAXPROCS-1
// as needed. At most GOMAXPROCS-1 participants are dispatched even when
// more idle workers exist (they may have been created under a higher
// GOMAXPROCS). Participants the pool cannot serve run inline on the
// caller after body(0); fork returns when all n invocations completed.
func fork(n int, body func(id int)) {
	if n <= 1 {
		if n == 1 {
			body(0)
		}
		return
	}
	poolStats.forks.Add(1)
	limit := runtime.GOMAXPROCS(0) - 1
	var wg sync.WaitGroup
	dispatched := 1
	pool.mu.Lock()
	for dispatched < n && dispatched-1 < limit {
		var ch chan task
		if k := len(pool.idle); k > 0 {
			ch = pool.idle[k-1]
			pool.idle = pool.idle[:k-1]
		} else if pool.size < limit {
			ch = make(chan task, 1)
			pool.size++
			poolStats.created.Add(1)
			go workerLoop(ch)
		} else {
			break
		}
		wg.Add(1)
		ch <- task{body: body, wg: &wg, id: dispatched, sent: time.Now()}
		dispatched++
	}
	pool.mu.Unlock()
	poolStats.dispatched.Add(int64(dispatched - 1))
	body(0)
	if dispatched < n {
		poolStats.inline.Add(int64(n - dispatched))
		for id := dispatched; id < n; id++ {
			body(id) // pool exhausted: the caller covers the rest
		}
	}
	if dispatched > 1 {
		t0 := time.Now()
		wg.Wait()
		poolStats.joinNanos.Add(time.Since(t0).Nanoseconds())
	}
}

// rangeClaimer returns a batched claim function handing out consecutive
// index ranges of about grain elements from [0, n): one atomic add per
// grain indices instead of one per index. Successful claims are counted
// into the pool's observability counters (one more atomic add per
// ~grain items).
func rangeClaimer(n, grain int, next *atomic.Int64) func() (int, int, bool) {
	numChunks := blocksOf(n, grain)
	return func() (int, int, bool) {
		c := int(next.Add(1)) - 1
		if c >= numChunks {
			return 0, 0, false
		}
		poolStats.claims.Add(1)
		lo, hi := blockBounds(c, n, grain)
		return lo, hi, true
	}
}
