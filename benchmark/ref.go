package main

import (
	"math"
	"sync"
	"time"

	rs "radiusstep"
)

// refSolver is the yardstick the time metrics are reported in: a plain
// binary-heap Dijkstra over the benchmark's own copy of the workload's
// graph, from a fixed list of sources. It shares no code with the
// program under test, and its work is the same in every run of a
// workload, so its time measures only how fast the host is running.
//
// A shared host's speed drifts by tens of percent over seconds and up to
// 2x over minutes, moving every wall-clock time of a run. Some of the
// drift reaches one CPU and not the other, which parallel code feels and
// sequential code may not. So one reference sample is a solve alone
// followed by one solve per CPU at once. Each round takes a sample before
// and after its measurements and divides its times by their mean: times
// of work on one CPU by the solve alone ("seqref"), all others by the
// whole sample ("ref"). What remains is the program's speed relative to
// the host's at that moment.
type refSolver struct {
	workers []*refWorker // one per CPU; workers[0] also runs the solve alone
	next    int          // index into srcs of the next solve
	srcs    []int32
}

// refWorker is one solve's state over the shared graph arrays.
type refWorker struct {
	off  []int32 // CSR offsets, n+1
	adj  []int32
	w    []float64
	dist []float64
	heap []refItem
}

type refItem struct {
	d float64
	v int32
}

const refSources = 16 // distinct sources the reference cycles through

func newRefSolver(g *rs.Graph, procs int) *refSolver {
	n := g.NumVertices()
	off := make([]int32, n+1)
	var adj []int32
	var w []float64
	for u := range n {
		a, wt := g.Neighbors(rs.Vertex(u))
		adj = append(adj, a...)
		w = append(w, wt...)
		off[u+1] = int32(len(adj))
	}
	r := &refSolver{}
	for range procs {
		r.workers = append(r.workers, &refWorker{off: off, adj: adj, w: w, dist: make([]float64, n)})
	}
	for i := range refSources {
		r.srcs = append(r.srcs, int32(i*n/refSources))
	}
	return r
}

// sample takes one reference sample and returns, in milliseconds, the
// time of its solve alone and of the whole sample.
func (r *refSolver) sample() (alone, whole float64) {
	t0 := time.Now()
	r.workers[0].solve(r.src(0))
	alone = ms(time.Since(t0))
	var wg sync.WaitGroup
	for j, rw := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw.solve(r.src(j + 1))
		}()
	}
	wg.Wait()
	r.next += len(r.workers) + 1
	return alone, ms(time.Since(t0))
}

func (r *refSolver) src(i int) int32 { return r.srcs[(r.next+i)%len(r.srcs)] }

func (rw *refWorker) solve(src int32) {
	dist := rw.dist
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := append(rw.heap[:0], refItem{0, src})
	for len(h) > 0 {
		top := h[0]
		last := h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 0 { // sift last down from the root
			i := 0
			for {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1].d < h[c].d {
					c++
				}
				if last.d <= h[c].d {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = last
		}
		if top.d > dist[top.v] {
			continue // stale entry
		}
		for a := rw.off[top.v]; a < rw.off[top.v+1]; a++ {
			v, d := rw.adj[a], top.d+rw.w[a]
			if d >= dist[v] {
				continue
			}
			dist[v] = d
			h = append(h, refItem{})
			i := len(h) - 1
			for i > 0 && h[(i-1)/2].d > d { // sift up
				h[i] = h[(i-1)/2]
				i = (i - 1) / 2
			}
			h[i] = refItem{d, v}
		}
	}
	rw.heap = h
}
