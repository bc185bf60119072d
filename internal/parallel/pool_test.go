package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestForkRunsEveryParticipantOnce: every id in [0, n) must run exactly
// once, whatever the pool's state — the contract callers that index
// per-worker scratch by id rely on.
func TestForkRunsEveryParticipantOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 33} {
		hits := make([]int32, n)
		fork(n, func(id int) {
			if id < 0 || id >= n {
				t.Errorf("fork(%d): id %d out of range", n, id)
				return
			}
			atomic.AddInt32(&hits[id], 1)
		})
		for id, h := range hits {
			if h != 1 {
				t.Fatalf("fork(%d): id %d ran %d times", n, id, h)
			}
		}
	}
}

// TestForkNested: forks from inside pool workers (nested parallelism, as
// in parallel sort and merge) must complete without deadlock even when
// they saturate the pool.
func TestForkNested(t *testing.T) {
	var total atomic.Int64
	fork(4, func(outer int) {
		fork(4, func(inner int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 16 {
		t.Fatalf("nested fork ran %d bodies, want 16", got)
	}
}

// TestForkConcurrent: many goroutines forking at once (the serving
// daemon's concurrent solves) all complete and the pool never exceeds
// its size bound.
func TestForkConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				fork(4, func(int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*50*4 {
		t.Fatalf("concurrent forks ran %d bodies, want %d", got, 8*50*4)
	}
	pool.mu.Lock()
	size := pool.size
	pool.mu.Unlock()
	if limit := runtime.GOMAXPROCS(0) - 1; size > limit && limit > 0 {
		t.Fatalf("pool grew to %d workers, limit %d", size, limit)
	}
}

// TestWorkersGrainCoversAllIndices: the batched claim hands out every
// index exactly once across workers, for grains around the boundaries.
func TestWorkersGrainCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4099} {
		for _, grain := range []int{0, 1, 64, 4096} {
			hits := make([]int32, n)
			WorkersGrain(n, grain, func(w int, claim func() (int, int, bool)) {
				for {
					lo, hi, ok := claim()
					if !ok {
						return
					}
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d grain=%d: bad range [%d,%d)", n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d claimed %d times", n, grain, i, h)
				}
			}
		}
	}
}

// TestWorkersGrainWorkerIDsDistinct: worker ids are distinct and dense,
// so per-worker scratch arrays never alias.
func TestWorkersGrainWorkerIDsDistinct(t *testing.T) {
	seen := make([]int32, Procs()+1)
	WorkersGrain(10_000, 16, func(w int, claim func() (int, int, bool)) {
		if w < 0 || w >= len(seen) {
			t.Errorf("worker id %d out of range", w)
			return
		}
		if atomic.AddInt32(&seen[w], 1) != 1 {
			t.Errorf("worker id %d reused", w)
		}
		for {
			if _, _, ok := claim(); !ok {
				return
			}
		}
	})
}

// setProcs pins GOMAXPROCS for a subtest and restores it on cleanup, so
// the multi-proc pool tests below exercise real dispatch limits instead
// of whatever the runner happens to have.
func setProcs(t *testing.T, p int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestForkNestedAtProcs drives the nested-fork path (a fork issued from
// inside a pool worker, as the parallel sort and the frontier commit
// do) at several GOMAXPROCS settings. Every participant of every level
// must run exactly once, and the fork must never deadlock even when the
// inner forks saturate the pool. CI runs this under -race.
func TestForkNestedAtProcs(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		t.Run(procsName(p), func(t *testing.T) {
			setProcs(t, p)
			const outer, inner = 6, 6
			var hits [outer][inner]int32
			fork(outer, func(o int) {
				fork(inner, func(i int) {
					atomic.AddInt32(&hits[o][i], 1)
				})
			})
			for o := range hits {
				for i := range hits[o] {
					if hits[o][i] != 1 {
						t.Fatalf("procs=%d: body (%d,%d) ran %d times", p, o, i, hits[o][i])
					}
				}
			}
			// Three levels deep: sort-inside-commit-inside-substep shape.
			var total atomic.Int64
			fork(3, func(int) {
				fork(3, func(int) {
					fork(3, func(int) { total.Add(1) })
				})
			})
			if got := total.Load(); got != 27 {
				t.Fatalf("procs=%d: depth-3 nest ran %d bodies, want 27", p, got)
			}
		})
	}
}

// TestConcurrentSolvesAtProcs models the serving daemon: several
// goroutines each running fork-join loops (with nesting) concurrently.
// All bodies must run exactly once per fork and the pool must respect
// its size bound. CI runs this under -race at GOMAXPROCS=4.
func TestConcurrentSolvesAtProcs(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		t.Run(procsName(p), func(t *testing.T) {
			setProcs(t, p)
			var wg sync.WaitGroup
			var total atomic.Int64
			const solvers, reps = 6, 40
			for g := 0; g < solvers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < reps; rep++ {
						// A mock substep: a grained claim loop plus a
						// nested fork, like relax + frontier commit.
						WorkersGrain(96, 16, func(_ int, claim func() (int, int, bool)) {
							for {
								lo, hi, ok := claim()
								if !ok {
									return
								}
								total.Add(int64(hi - lo))
							}
						})
						fork(2, func(int) {
							fork(2, func(int) { total.Add(1) })
						})
					}
				}()
			}
			wg.Wait()
			want := int64(solvers * reps * (96 + 4))
			if got := total.Load(); got != want {
				t.Fatalf("procs=%d: concurrent solves ran %d units, want %d", p, got, want)
			}
		})
	}
}

func procsName(p int) string { return "gomaxprocs-" + string(rune('0'+p)) }

// TestPoolCountersPadded asserts the false-sharing defense: every pool
// counter must sit alone on a 64-byte cache line, so one worker's claim
// traffic cannot invalidate the line under another's wake/park counters.
func TestPoolCountersPadded(t *testing.T) {
	if s := unsafe.Sizeof(paddedInt64{}); s%64 != 0 {
		t.Fatalf("paddedInt64 is %d bytes, want a multiple of 64", s)
	}
	if o := unsafe.Offsetof(poolStats.dispatched) - unsafe.Offsetof(poolStats.forks); o < 64 {
		t.Fatalf("adjacent pool counters %d bytes apart, want >= 64", o)
	}
}
