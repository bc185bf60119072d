package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rs "radiusstep"
	"radiusstep/internal/server"
)

// env is what every pass of one invocation shares.
type env struct {
	seed    uint64
	seconds float64 // measured load time per pass
	procs   int     // connections, and server solve workers
	workdir string  // scratch files go in a fresh directory under it
}

// result is one pass of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Pass      string            `json:"pass"` // untraced or traced
	Plan      string            `json:"plan"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Valid     bool              `json:"valid"` // false when the generator ran late
	Metrics   map[string]metric `json:"metrics"`
	Measured  map[string]metric `json:"measured,omitempty"` // untraced: the time metrics in ms, unbounded
	Spans     []span            `json:"-"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// timings keeps times as measured, in ms, and the same times divided by
// the reference time of the round they were taken in.
type timings struct{ ms, ref []float64 }

func (t *timings) add(unit float64, xs ...float64) {
	for _, x := range xs {
		t.ms = append(t.ms, x)
		t.ref = append(t.ref, x/unit)
	}
}

// stages times one set-up, DIMACS file to a registry ready to serve,
// and keeps the preprocessing counters and snapshot size.
type stages struct {
	parse, reorder, preprocess, landmarks, write, load, total time.Duration
	visited, scanned, shortcuts, snapBytes                    int64
}

// setup runs the offline and load pipeline once, as graphpack and ssspd
// would, and returns the serving registry.
func setup(w workload, dimacs, snapPath string, spans *spanLog) (stages, *server.Registry, error) {
	var st stages
	root := spans.begin("setup", 0)
	defer spans.end(root)
	step := func(name string, d *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		*d = t1.Sub(t0)
		spans.add(name, root, t0, t1)
		return err
	}
	start := time.Now()
	var g *rs.Graph
	var perm []rs.Vertex
	var pre *rs.Preprocessed
	var snap *rs.Snapshot
	opt := rs.Options{Rho: rho}
	reg := server.NewRegistry()
	err := errors.Join(
		step("graph.parse", &st.parse, func() (err error) {
			g, _, err = rs.LoadGraphFile(dimacs)
			return err
		}),
		step("graph.reorder", &st.reorder, func() (err error) {
			if perm, err = rs.OrderByName(g, w.order); perm != nil {
				g = rs.ApplyOrder(g, perm)
			}
			return err
		}),
		step("preprocess", &st.preprocess, func() (err error) {
			if pre, err = rs.Preprocess(g, opt); err != nil {
				return err
			}
			st.visited, st.scanned, st.shortcuts = pre.Visited, pre.EdgesScanned, pre.Added
			snap, err = rs.NewSnapshot(pre, opt)
			if snap != nil {
				snap.Perm = perm
			}
			return err
		}),
	)
	if err != nil {
		return st, nil, err
	}
	if w.landmarks > 0 {
		err = step("landmark.build", &st.landmarks, func() error {
			sol, err := rs.NewSolverPre(pre, rs.EngineAuto)
			if err != nil {
				return err
			}
			if _, err := sol.BuildLandmarks(w.landmarks, rs.LandmarksFarthest); err != nil {
				return err
			}
			snap.Landmarks, snap.LandmarkDist = sol.LandmarkData()
			return nil
		})
	}
	if err == nil {
		err = step("graph.snapshot_write", &st.write, func() error { return rs.WriteSnapshotFile(snapPath, snap) })
	}
	if err == nil {
		err = step("server.load", &st.load, func() error {
			return reg.LoadConfig(server.GraphConfig{Name: w.name, Snapshot: snapPath})
		})
	}
	st.total = time.Since(start)
	if err != nil {
		return st, nil, err
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		return st, nil, err
	}
	st.snapBytes = fi.Size()
	return st, reg, nil
}

// runPass runs one workload once: untraced for the end-to-end metrics,
// traced for the per-layer metrics and spans.
func runPass(w workload, e env, traced bool) (*result, error) {
	res := &result{Workload: w.name, Pass: "untraced", Valid: true, Metrics: make(map[string]metric)}
	var spans *spanLog
	if traced {
		res.Pass = "traced"
		spans = newSpanLog()
	}
	dir, err := os.MkdirTemp(e.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Inputs, off the clock.
	g, err := w.generate()
	if err != nil {
		return nil, err
	}
	p := newPlan(w, e.seed, g, e.seconds)
	res.Plan = p.hash
	fmt.Printf("# plan %s %s n=%d m=%d hash=%s\n", w.name, res.Pass, g.NumVertices(), g.NumEdges(), p.hash)
	dimacs, snapPath := filepath.Join(dir, "graph.gr"), filepath.Join(dir, "graph.snap")
	if err := writeDIMACS(dimacs, g); err != nil {
		return nil, err
	}

	var (
		st     stages // the first set-up, whose registry serves
		reg    *server.Registry
		snap   *rs.Snapshot
		sol    *rs.Solver
		cl     *client
		ph     phase
		ref    = newRefSolver(g, e.procs)
		setups []float64 // seconds
		// The reference times of each round, in ms: the whole sample,
		// and its solve alone.
		refs, seqRefs []float64
		// Cold starts (snapshot reads, traced) in units of the solve
		// alone, since they run on one CPU; library calls, open-loop
		// latencies and closed-loop time in units of the whole sample.
		colds, solve, due, closed timings
	)
	stored := func(v rs.Vertex) rs.Vertex { // original id -> the solver's id
		if snap.Perm == nil {
			return v
		}
		return snap.Perm[v]
	}
	for r := range rounds {
		seq0, ref0 := ref.sample()

		// Set-up every setupEvery rounds untraced (setup_s is the median),
		// once traced.
		if r == 0 || (!traced && r%setupEvery == 0) {
			runtime.GC()
			s, rg, err := setup(w, dimacs, snapPath, spans)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, s.total.Seconds())
			if r == 0 {
				st, reg = s, rg
			}
		}

		// Cold start from the packed snapshot: a full registry load
		// untraced, a snapshot read traced.
		runtime.GC()
		t0 := time.Now()
		if traced {
			snap, _, err = rs.ReadSnapshotFile(snapPath)
			spans.add("graph.snapshot_read", 0, t0, time.Now())
		} else {
			err = server.NewRegistry().LoadConfig(server.GraphConfig{Name: w.name, Snapshot: snapPath})
		}
		cold := ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		if snap == nil {
			if snap, _, err = rs.ReadSnapshotFile(snapPath); err != nil {
				return nil, err
			}
		}
		if sol == nil {
			if sol, err = rs.SolverFromSnapshot(snap, rs.EngineAuto); err != nil {
				return nil, err
			}
		}
		var lib []float64 // this round's library calls, ms
		if !traced {
			n := len(p.library) / rounds
			if lib, err = librarySolves(w, sol, p.library[r*n:(r+1)*n], stored); err != nil {
				return nil, err
			}
		}

		if r == 0 {
			srv := server.New(reg, server.Config{Workers: e.procs, CacheBytes: int64(cacheVectors * g.NumVertices() * 8)})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			hs := &http.Server{Handler: srv.Handler()}
			served := make(chan error, 1)
			go func() { served <- hs.Serve(ln) }()
			defer func() {
				_ = hs.Shutdown(context.Background())
				<-served
			}()
			cl = newClient("http://"+ln.Addr().String(), e.procs, spans)
			defer cl.close()
			warm, _ := cl.closedLoop(w.endpoint, p.warm, time.Now().Add(time.Minute), 0)
			for _, o := range warm {
				if o.failed {
					return nil, fmt.Errorf("warm-up request failed")
				}
			}
		}
		open0, closed0 := len(ph.open), ph.closedTime
		if err := ph.chunk(w, e, p, r, cl, reg, spans); err != nil {
			return nil, err
		}

		seq1, ref1 := ref.sample()
		seqRef, unit := (seq0+seq1)/2, (ref0+ref1)/2
		seqRefs, refs = append(seqRefs, seqRef), append(refs, unit)
		colds.add(seqRef, cold)
		solve.add(unit, lib...)
		for _, o := range ph.open[open0:] {
			due.add(unit, ms(o.fromDue))
		}
		closed.add(unit, ms(ph.closedTime-closed0))
	}

	res.Attempted = len(ph.open) + len(ph.closed)
	for _, o := range append(ph.open, ph.closed...) {
		if o.failed {
			res.Failed++
		}
	}
	res.Failed += len(ph.reloadErrs)
	lags := make([]float64, 0, len(ph.open))
	for _, o := range ph.open {
		if o.lag >= 0 {
			lags = append(lags, ms(o.lag))
		}
	}
	lagP99 := percentile(lags, 0.99)
	if lagP99 > 10 {
		res.Valid = false
		fmt.Printf("# invalid: %s generator ran %.1f ms late at p99\n", w.name, lagP99)
	}

	if traced {
		res.set("graph.parse_s", st.parse.Seconds(), "s")
		res.set("graph.reorder_s", st.reorder.Seconds(), "s")
		res.set("graph.snapshot_write_s", st.write.Seconds(), "s")
		res.set("graph.snapshot_bytes", float64(st.snapBytes), "bytes")
		res.set("graph.snapshot_read_s", median(colds.ms)/1000, "s")
		res.set("host.ref_ms", median(refs), "ms")
		res.set("host.seqref_ms", median(seqRefs), "ms")
		res.set("preprocess.time_s", st.preprocess.Seconds(), "s")
		res.set("preprocess.visited", float64(st.visited), "count")
		res.set("preprocess.edges_scanned", float64(st.scanned), "count")
		res.set("preprocess.shortcuts", float64(st.shortcuts), "count")
		if err := serverLayers(res, w, &ph, lagP99); err != nil {
			return nil, err
		}
		if err := probes(res, w, p, sol, stored, reg, cl, &ph, st, spans); err != nil {
			return nil, err
		}
		res.Spans = spans.spans
	} else {
		// The bounded time metrics are in reference units (see ref.go);
		// beside them, the same times as measured, for reading.
		res.set("setup_s", median(setups), "s")
		res.set("cold_start_seqref", median(colds.ref), "seqref")
		res.set("solve_p50_ref", median(solve.ref), "ref")
		res.set("p50_ref", percentile(due.ref, 0.50), "ref")
		res.set("p75_ref", percentile(due.ref, 0.75), "ref")
		res.set("throughput_per_ref", float64(len(ph.closed))/sum(closed.ref), "1/ref")
		res.set("peak_heap_mb", median(ph.peakHeap), "MiB")
		res.Measured = map[string]metric{
			"ref_ms":         {median(refs), "ms"},
			"seqref_ms":      {median(seqRefs), "ms"},
			"cold_start_ms":  {median(colds.ms), "ms"},
			"solve_p50_ms":   {median(solve.ms), "ms"},
			"p50_ms":         {percentile(due.ms, 0.50), "ms"},
			"p75_ms":         {percentile(due.ms, 0.75), "ms"},
			"throughput_qps": {float64(len(ph.closed)) / ph.closedTime.Seconds(), "1/s"},
		}
	}

	// Output checks, off the clock.
	checked, bad := verify(w, g, p, &ph, cl)
	res.Attempted += checked
	res.Failed += bad
	return res, nil
}

func writeDIMACS(path string, g *rs.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := rs.WriteDIMACS(bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// librarySolves times direct solver calls in milliseconds: full solves,
// or pruned routes on the route workload.
func librarySolves(w workload, sol *rs.Solver, reqs []request, stored func(rs.Vertex) rs.Vertex) ([]float64, error) {
	times := make([]float64, 0, len(reqs))
	for _, r := range reqs {
		t0 := time.Now()
		var err error
		if w.endpoint == "/v1/route" {
			_, _, _, err = sol.Route(stored(r.src), stored(r.dst), rs.EngineAuto, true)
		} else {
			_, _, err = sol.Distances(stored(r.src))
		}
		if err != nil {
			return nil, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return times, nil
}

// phase accumulates what the load chunks observed.
type phase struct {
	open, closed []outcome
	closedTime   time.Duration
	server       counters // server counters over the open-loop chunks
	reloads      []time.Duration
	reloadErrs   []error
	peakHeap     []float64 // MiB, the largest live heap of each open-loop chunk
}

// chunk runs round r's share of the load: a slice of the open loop at
// the workload's rate, then a closed loop on every connection, reloading
// the graph half-way through it where the workload asks. Reloading there
// keeps the miss storm that follows out of the open loop's latencies and
// in the closed loop's throughput.
func (ph *phase) chunk(w workload, e env, p *plan, r int, cl *client, reg *server.Registry, spans *spanLog) error {
	lo, hi := r*len(p.open)/rounds, (r+1)*len(p.open)/rounds
	runtime.GC() // start every chunk from the same heap state
	c0, err := cl.counters(w.endpoint)
	if err != nil {
		return err
	}
	root := spans.begin("load", 0)
	open := spans.begin("load.open", root)
	heap := startHeapPeak()
	ph.open = append(ph.open, cl.openLoop(w.endpoint, p.open[lo:hi], lo, w.rate, p.sample, open)...)
	ph.peakHeap = append(ph.peakHeap, heap.finish())
	spans.end(open)
	c1, err := cl.counters(w.endpoint)
	if err != nil {
		return err
	}
	ph.server = ph.server.plus(1, c1).plus(-1, c0)

	closed := spans.begin("load.closed", root)
	length := time.Duration(e.seconds * (1 - openShare) / rounds * float64(time.Second))
	var at []time.Duration
	if w.reload && r%setupEvery == 1 {
		at = append(at, length/2)
	}
	start := time.Now()
	rl := startReloader(reg, w.name, start, at, spans, closed)
	out, took := cl.closedLoop(w.endpoint, p.closed[len(ph.closed):], start.Add(length), closed)
	rl.finish()
	ph.reloads = append(ph.reloads, rl.times...)
	ph.reloadErrs = append(ph.reloadErrs, rl.errs...)
	ph.closed = append(ph.closed, out...)
	ph.closedTime += took
	spans.end(closed)
	spans.end(root)
	if len(at) > 0 {
		// Solve the hot set again on the new epoch, off the clock, so the
		// next open-loop chunk measures hits, not what this reload left
		// unsolved.
		warm, _ := cl.closedLoop(w.endpoint, p.warm, time.Now().Add(time.Minute), 0)
		for _, o := range warm {
			if o.failed {
				return fmt.Errorf("re-warm after reload failed")
			}
		}
	}
	return nil
}

// verify checks the sampled bodies against the oracle and, where the
// graph was reloaded, across epochs. It returns checks made and failed.
func verify(w workload, g *rs.Graph, p *plan, ph *phase, cl *client) (checked, failed int) {
	o := newOracle(g)
	report := func(err error) {
		checked++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: verification failed: %v\n", w.name, err)
		}
	}
	var bodies [][]byte
	for i, out := range ph.open {
		if !p.sample[i] || out.failed {
			continue
		}
		report(o.check(w, p.open[i], out.body))
		bodies = append(bodies, out.body)
	}
	if w.reload {
		// Ask again now, on the latest epoch, for every sampled source.
		for i := range ph.open {
			if !p.sample[i] {
				continue
			}
			var b bytes.Buffer
			if cl.post(w.endpoint, p.open[i].body, &b) {
				report(fmt.Errorf("re-request for source %d failed", p.open[i].src))
				continue
			}
			bodies = append(bodies, b.Bytes())
		}
		report(sameAcrossEpochs(bodies))
	}
	return checked, failed
}
