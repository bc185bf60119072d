// Package parallel provides the PRAM-style fork-join primitives that the
// rest of the library is built on: dynamically scheduled parallel loops,
// reductions, prefix sums, packing, parallel sorting, and the atomic
// priority-write (WriteMin) used to relax edges concurrently.
//
// All primitives degrade gracefully to sequential execution for small
// inputs or when GOMAXPROCS is 1, so callers never need a separate
// sequential code path. Parallel execution is served by a persistent
// pool of parked workers (see pool.go) rather than per-call goroutines,
// so each fork-join pays a channel wake-up instead of goroutine-spawn
// and scheduler churn.
package parallel

import (
	"runtime"
	"sync/atomic"
)

// DefaultGrain is the default number of loop iterations a worker claims at
// a time. It is chosen so that per-chunk scheduling overhead (one atomic
// add) is negligible next to useful work for typical graph kernels.
const DefaultGrain = 1024

// Procs reports the degree of parallelism primitives will use.
func Procs() int { return runtime.GOMAXPROCS(0) }

// For runs fn(i) for every i in [0, n), in parallel when profitable.
// Iterations must be independent; fn must not assume any ordering.
func For(n int, fn func(i int)) {
	ForGrain(n, DefaultGrain, fn)
}

// ForGrain is For with an explicit scheduling grain. Use a small grain for
// expensive, irregular iterations and a large one for cheap uniform loops.
func ForGrain(n, grain int, fn func(i int)) {
	Blocks(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Blocks splits [0, n) into contiguous blocks of about grain iterations and
// calls fn(lo, hi) on each, in parallel. Blocks are handed to workers
// dynamically (an atomic counter), which load-balances irregular work such
// as per-vertex loops over skewed degree distributions.
func Blocks(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := Procs()
	if p == 1 || n <= grain {
		fn(0, n)
		return
	}
	numBlocks := (n + grain - 1) / grain
	workers := p
	if workers > numBlocks {
		workers = numBlocks
	}
	var next atomic.Int64
	claim := rangeClaimer(n, grain, &next)
	fork(workers, func(int) {
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			fn(lo, hi)
		}
	})
}

// Workers runs fn once per worker with a distinct worker id in [0, count).
// Workers claim work themselves via the returned claim function, which
// hands out indices in [0, n) and reports false when the range is
// exhausted. This primitive exists for kernels that need worker-local
// scratch state (for example the per-source restricted Dijkstra in
// preprocessing), which plain For cannot express. Every worker id is
// guaranteed to run exactly once, even when the pool serves other forks.
//
// The claim function costs one atomic per index; for cheap per-item work
// (per-vertex frontier loops) use WorkersGrain, whose batched claim
// amortizes the atomic over a range of indices.
func Workers(n int, fn func(worker int, claim func() (int, bool))) {
	if n <= 0 {
		return
	}
	workers := Procs()
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	claim := func() (int, bool) {
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	if workers == 1 {
		fn(0, claim)
		return
	}
	fork(workers, func(id int) { fn(id, claim) })
}

// WorkersGrain is Workers with a batched claim: claim hands out
// half-open index ranges [lo, hi) of about grain indices, so the
// scheduling cost is one atomic add per grain items instead of one per
// item. Use it for loops whose per-item work is comparable to an atomic
// operation (relaxing one vertex's edges, scanning one frontier entry).
// It returns the number of participants, the caller included: 1 means
// it did not fork.
func WorkersGrain(n, grain int, fn func(worker int, claim func() (lo, hi int, ok bool))) int {
	if n <= 0 {
		return 1
	}
	if grain < 1 {
		grain = 1
	}
	numChunks := blocksOf(n, grain)
	workers := Procs()
	if workers > numChunks {
		workers = numChunks
	}
	var next atomic.Int64
	claim := rangeClaimer(n, grain, &next)
	if workers == 1 {
		fn(0, claim)
		return 1
	}
	fork(workers, func(id int) { fn(id, claim) })
	return workers
}
