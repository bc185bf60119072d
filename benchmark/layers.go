package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	rs "radiusstep"
	"radiusstep/internal/server"
)

const probeLandmarks = 8 // landmarks built for the route probes when the snapshot has none

// serverLayers derives the server and client metrics from the open loop:
// the client's outcomes and the server's counter deltas.
func serverLayers(res *result, w workload, ph *phase, lagP99 float64) error {
	c := ph.server
	if c.requests <= 0 || c.reqCount <= 0 {
		return fmt.Errorf("%s: the server counted no %s requests", w.name, w.endpoint)
	}
	var size, send float64
	for _, o := range ph.open {
		size += float64(o.bytes)
		send += ms(o.fromSend)
	}
	n := float64(len(ph.open))
	reqMean := 1000 * c.reqSum / c.reqCount
	solveMean := 1000 * ratio(c.solveSum, c.solveCount)
	res.set("server.response_bytes", size/n, "bytes")
	res.set("server.cache_hit_share", c.cacheHits/c.requests, "ratio")
	res.set("server.coalesced_share", c.coalesced/c.requests, "ratio")
	res.set("server.solves_per_request", (c.solves+c.routeSolves)/c.requests, "ratio")
	res.set("server.non_solve_ms", reqMean-c.solves/c.requests*solveMean, "ms")
	res.set("client.transport_ms", send/n-reqMean, "ms")
	res.set("client.send_lag_p99_ms", lagP99, "ms")
	return nil
}

// probes measures the library and server layers directly after the load
// phase: traced solves, each engine, landmark routes, cache hits and
// reloads.
func probes(res *result, w workload, p *plan, sol *rs.Solver, stored func(rs.Vertex) rs.Vertex,
	reg *server.Registry, cl *client, ph *phase, st stages, spans *spanLog) error {
	if err := coreLayers(res, p, sol, stored, spans); err != nil {
		return err
	}
	for _, e := range []rs.Engine{rs.EngineSequential, rs.EngineParallel, rs.EngineFlat, rs.EngineDelta, rs.EngineRho} {
		var times []float64
		for _, r := range p.core[:min(engineReps, len(p.core))] {
			t0 := time.Now()
			if _, _, err := sol.DistancesWith(stored(r.src), e); err != nil {
				return err
			}
			times = append(times, ms(time.Since(t0)))
		}
		res.set("core.solve_ms."+e.String(), median(times), "ms")
	}
	if err := landmarkLayers(res, p, sol, stored, st, spans); err != nil {
		return err
	}

	// Warm full-vector hits on one source.
	root := spans.begin("probe.hit", 0)
	body, _ := json.Marshal(map[string]any{"graph": w.name, "source": p.core[0].src})
	var buf bytes.Buffer
	var hits []float64
	for i := range hitProbes + 1 {
		t0 := time.Now()
		failed := cl.post("/v1/distances", body, &buf)
		t1 := time.Now()
		if failed {
			return fmt.Errorf("%s: cache-hit probe failed", w.name)
		}
		spans.request(root, t0, t1)
		if i > 0 { // the first request fills the cache
			hits = append(hits, ms(t1.Sub(t0)))
		}
	}
	spans.end(root)
	res.set("server.hit_ms", median(hits), "ms")

	reloads := ph.reloads
	if len(reloads) == 0 {
		root := spans.begin("probe.reload", 0)
		for range 3 {
			t0 := time.Now()
			err := reg.Reload(w.name)
			t1 := time.Now()
			if err != nil {
				return err
			}
			spans.add("server.reload", root, t0, t1)
			reloads = append(reloads, t1.Sub(t0))
		}
		spans.end(root)
	}
	secs := make([]float64, len(reloads))
	for i, d := range reloads {
		secs[i] = d.Seconds()
	}
	res.set("server.reload_s", median(secs), "s")
	return nil
}

// coreLayers traces one solve per core source, alternating with an
// untraced solve of the same source, and reduces the timelines.
func coreLayers(res *result, p *plan, sol *rs.Solver, stored func(rs.Vertex) rs.Vertex, spans *spanLog) error {
	var (
		plain, traced                                 []float64
		steps, substeps, relax, arcs, pushes, stale   float64
		solveNs, targetNs, collectNs, relaxNs, pullNs float64
		filterNs, sortNs, mergeNs                     float64
		forks, barrierNs, wakeNs, inline, dispatched  float64
	)
	root := spans.begin("probe.core", 0)
	for _, r := range p.core {
		src := stored(r.src)
		t0 := time.Now()
		if _, _, err := sol.Distances(src); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t0)))
		t0 = time.Now()
		_, st, tl, err := sol.DistancesTraced(src, rs.EngineAuto)
		t1 := time.Now()
		if err != nil {
			return err
		}
		traced = append(traced, ms(t1.Sub(t0)))
		spans.layout(spans.add("core.solve", root, t0, t1), t0, t1, tl)

		steps += float64(st.Steps)
		substeps += float64(st.Substeps)
		relax += float64(st.Relaxations)
		arcs += float64(st.EdgesScanned)
		pushes += float64(st.Frontier.Pushes)
		stale += float64(st.Frontier.Stale)
		solveNs += float64(tl.SolveNanos)
		for _, s := range tl.StepList {
			targetNs += float64(s.TargetNanos)
			collectNs += float64(s.CollectNanos)
			relaxNs += float64(s.RelaxNanos)
		}
		for _, s := range tl.SubstepList {
			if s.Mode == "pull" {
				pullNs += float64(s.Nanos)
			}
		}
		filterNs += float64(tl.Frontier.FilterNanos)
		sortNs += float64(tl.Frontier.SortNanos)
		mergeNs += float64(tl.Frontier.MergeNanos)
		forks += float64(tl.Pool.Forks)
		barrierNs += float64(tl.Pool.BarrierNanos)
		wakeNs += float64(tl.Pool.WakeNanos)
		inline += float64(tl.Pool.Inline)
		dispatched += float64(tl.Pool.Dispatched)
	}
	spans.end(root)
	n := float64(len(p.core))
	res.set("core.steps", steps/n, "count")
	res.set("core.substeps", substeps/n, "count")
	res.set("core.relaxations", relax/n, "count")
	res.set("core.arcs_scanned", arcs/n, "count")
	res.set("core.target_share", ratio(targetNs, solveNs), "ratio")
	res.set("core.collect_share", ratio(collectNs, solveNs), "ratio")
	res.set("core.relax_share", ratio(relaxNs, solveNs), "ratio")
	res.set("core.pull_share", ratio(pullNs, relaxNs), "ratio")
	res.set("core.ns_per_arc", ratio(solveNs, arcs), "ns")
	res.set("frontier.filter_ms", filterNs/n/1e6, "ms")
	res.set("frontier.sort_ms", sortNs/n/1e6, "ms")
	res.set("frontier.merge_ms", mergeNs/n/1e6, "ms")
	res.set("frontier.stale_share", ratio(stale, pushes), "ratio")
	res.set("parallel.forks", forks/n, "count")
	res.set("parallel.barrier_ms", barrierNs/n/1e6, "ms")
	res.set("parallel.wake_ms", wakeNs/n/1e6, "ms")
	res.set("parallel.inline_share", ratio(inline, inline+dispatched), "ratio")
	res.set("trace.overhead", median(traced)/median(plain)-1, "ratio")
	return nil
}

// landmarkLayers compares pruned with unpruned routes between
// consecutive core sources, building landmarks first when the snapshot
// carries none.
func landmarkLayers(res *result, p *plan, sol *rs.Solver, stored func(rs.Vertex) rs.Vertex, st stages, spans *spanLog) error {
	build := st.landmarks
	if sol.Landmarks() == 0 {
		t0 := time.Now()
		if _, err := sol.BuildLandmarks(probeLandmarks, rs.LandmarksFarthest); err != nil {
			return err
		}
		t1 := time.Now()
		spans.add("landmark.build", 0, t0, t1)
		build = t1.Sub(t0)
	}
	res.set("landmark.build_s", build.Seconds(), "s")
	var pruned, unpruned []float64
	var cut, relax float64
	for i, r := range p.core {
		s, t := stored(r.src), stored(p.core[(i+1)%len(p.core)].src)
		t0 := time.Now()
		if _, _, _, err := sol.Route(s, t, rs.EngineAuto, false); err != nil {
			return err
		}
		unpruned = append(unpruned, ms(time.Since(t0)))
		t0 = time.Now()
		_, _, rst, err := sol.Route(s, t, rs.EngineAuto, true)
		if err != nil {
			return err
		}
		pruned = append(pruned, ms(time.Since(t0)))
		cut += float64(rst.Pruned)
		relax += float64(rst.Relaxations)
	}
	res.set("landmark.pruned_share", ratio(cut, cut+relax), "ratio")
	res.set("landmark.route_speedup", median(unpruned)/median(pruned), "ratio")
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
