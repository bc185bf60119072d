// Command sssp runs one shortest-path computation on a generated or
// loaded graph and reports timings and round statistics. The -graph
// flag names the graph in the spec grammar ssspd's -graph flag takes
// after its "name=" (radiusstep.ParseGraphSpec): one of gen=FAMILY,
// file=PATH or snapshot=PATH, then n, seed and weights, and for
// -algo radius also rho, k, heuristic and engine, plus landmarks with
// -target. A snapshot is read as its input graph and preprocessed
// again.
//
// Examples:
//
//	sssp -graph gen=grid2d,n=250000,weights=10000,rho=64 -src 0
//	sssp -graph gen=web,n=100000 -algo delta -delta 5000
//	sssp -graph file=graph.txt -algo dijkstra -src 17
//	sssp -graph gen=rmat,n=50000,weights=10000,landmarks=8 -src 0 -target 4999
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	rs "radiusstep"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// report receives the text report. -trace - moves it to stderr, so
// stdout carries the timeline JSON alone.
var report io.Writer = os.Stdout

// writeTimeline dumps one solve timeline as indented JSON; "-" writes
// to stdout.
func writeTimeline(path string, tl *rs.Timeline) error {
	out, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// routeMode answers one point-to-point query with an early-terminated
// solve, goal-directed when landmarks > 0, and reports the route plus
// the solve's work counters (pruned= shows the relaxations landmark
// pruning saved).
func routeMode(g *rs.Graph, solver *rs.Solver, src, dst rs.Vertex, engine rs.Engine, landmarks int, verify bool) {
	if int(dst) >= g.NumVertices() {
		fail("target %d out of range", dst)
	}
	if landmarks > 0 {
		t0 := time.Now()
		built, err := solver.BuildLandmarks(landmarks, rs.LandmarksFarthest)
		if err != nil {
			fail("landmarks: %v", err)
		}
		fmt.Fprintf(report, "landmarks: built %d (farthest) in %v\n", built, time.Since(t0).Round(time.Microsecond))
	}
	t0 := time.Now()
	path, d, st, err := solver.Route(src, dst, engine, true)
	if err != nil {
		fail("route: %v", err)
	}
	elapsed := time.Since(t0)
	if math.IsInf(d, 1) {
		fmt.Fprintf(report, "route: %v  %d..%d unreachable  %s\n", elapsed.Round(time.Microsecond), src, dst, st)
		return
	}
	fmt.Fprintf(report, "route: %v  dist=%g hops=%d  %s\n", elapsed.Round(time.Microsecond), d, len(path)-1, st)
	if verify {
		// The route must realize its claimed length edge by edge, and the
		// length must match an independent sequential oracle.
		sum, err := rs.PathLength(g, path)
		if err != nil {
			fail("VERIFY FAILED: %v", err)
		}
		if sum != d {
			fail("VERIFY FAILED: path sums to %g, route reported %g", sum, d)
		}
		if exact := rs.Dijkstra(g, src)[dst]; exact != d {
			fail("VERIFY FAILED: dijkstra says %g, route reported %g", exact, d)
		}
		fmt.Fprintln(report, "verify: route OK (path tight, distance matches dijkstra)")
	}
}

func main() {
	graphSpec := flag.String("graph", "", "input graph spec: gen=FAMILY|file=PATH|snapshot=PATH[,n=N][,seed=S][,weights=W], plus rho, k, heuristic, engine and (with -target) landmarks for -algo radius")
	src := flag.Int("src", 0, "source vertex")
	algo := flag.String("algo", "radius", "radius|dijkstra|delta|bellmanford|bfs")
	delta := flag.Float64("delta", 1000, "delta-stepping bucket width (-algo delta only; engine=delta derives its width from the graph)")
	verify := flag.Bool("verify", false, "verify the result certificate")
	traceOut := flag.String("trace", "", "write the solve timeline (steps, substeps, pool and frontier timings) as JSON to this file (-algo radius only; - for stdout, which moves the report to stderr)")
	target := flag.Int("target", -1, "route mode: answer a point-to-point query src..target with an early-terminated solve (-algo radius only)")
	flag.Parse()
	if *traceOut == "-" {
		report = os.Stderr
	}
	radius := *algo == "radius"
	flag.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "delta" && *algo != "delta":
			fail("-delta applies to -algo delta only, not -algo %s", *algo)
		case (f.Name == "trace" || f.Name == "target") && !radius:
			fail("-%s applies to -algo radius only, not -algo %s", f.Name, *algo)
		}
	})

	keys := []string{"gen", "file", "snapshot", "n", "seed", "weights"}
	if radius {
		keys = append(keys, "rho", "k", "heuristic", "engine")
		if *target >= 0 {
			keys = append(keys, "landmarks")
		}
	}
	spec, err := rs.ParseGraphSpec(*graphSpec, keys...)
	if err != nil {
		fail("sssp -algo %s: %v", *algo, err)
	}
	var opt rs.Options
	if radius {
		if opt, err = spec.Options(); err != nil {
			fail("%v", err)
		}
	}
	g, format, err := spec.Load()
	if err != nil {
		fail("load: %v", err)
	}
	fmt.Fprintf(report, "loaded %s (%s)\n", spec.Source(), format)
	fmt.Fprintf(report, "graph: n=%d m=%d L=%g\n", g.NumVertices(), g.NumEdges(), g.MaxWeight())
	if *src < 0 || *src >= g.NumVertices() {
		fail("source %d out of range", *src)
	}
	source := rs.Vertex(*src)

	var dist []float64
	switch *algo {
	case "radius":
		t0 := time.Now()
		solver, err := rs.NewSolver(g, opt)
		if err != nil {
			fail("preprocess: %v", err)
		}
		pre := solver.Preprocessed()
		fmt.Fprintf(report, "preprocess: %v (added %d shortcuts, visited %d, scanned %d)\n",
			time.Since(t0).Round(time.Microsecond), pre.Added, pre.Visited, pre.EdgesScanned)
		if *target >= 0 {
			routeMode(g, solver, source, rs.Vertex(*target), opt.Engine, spec.Landmarks, *verify)
			return
		}
		t1 := time.Now()
		var d []float64
		var st rs.Stats
		if *traceOut != "" {
			var tl *rs.Timeline
			d, st, tl, err = solver.DistancesTraced(source, rs.EngineAuto)
			if err != nil {
				fail("solve: %v", err)
			}
			if werr := writeTimeline(*traceOut, tl); werr != nil {
				fail("trace: %v", werr)
			}
			fmt.Fprintf(report, "trace: engine=%s steps=%d substeps=%d written to %s\n",
				tl.Engine, len(tl.StepList), len(tl.SubstepList), *traceOut)
		} else {
			d, st, err = solver.Distances(source)
			if err != nil {
				fail("solve: %v", err)
			}
		}
		fmt.Fprintf(report, "radius-stepping: %v  %s\n", time.Since(t1).Round(time.Microsecond), st)
		dist = d
	case "dijkstra":
		t0 := time.Now()
		dist = rs.Dijkstra(g, source)
		fmt.Fprintf(report, "dijkstra: %v\n", time.Since(t0).Round(time.Microsecond))
	case "delta":
		t0 := time.Now()
		d, st := rs.DeltaStepping(g, source, *delta)
		fmt.Fprintf(report, "delta-stepping: %v  steps=%d substeps=%d scanned=%d\n",
			time.Since(t0).Round(time.Microsecond), st.Steps, st.Substeps, st.EdgesScanned)
		dist = d
	case "bellmanford":
		t0 := time.Now()
		d, rounds := rs.BellmanFord(g, source)
		fmt.Fprintf(report, "bellman-ford: %v  rounds=%d\n", time.Since(t0).Round(time.Microsecond), rounds)
		dist = d
	case "bfs":
		t0 := time.Now()
		hops, levels := rs.BFSParallel(g, source)
		fmt.Fprintf(report, "parallel bfs: %v  levels=%d\n", time.Since(t0).Round(time.Microsecond), levels)
		reached := 0
		for _, h := range hops {
			if h >= 0 {
				reached++
			}
		}
		fmt.Fprintf(report, "reached %d/%d vertices\n", reached, g.NumVertices())
		return
	default:
		fail("unknown -algo %q", *algo)
	}

	reached, maxD := 0, 0.0
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			reached++
			if d > maxD {
				maxD = d
			}
		}
	}
	fmt.Fprintf(report, "reached %d/%d vertices, max distance %g\n", reached, g.NumVertices(), maxD)
	if *verify {
		if err := rs.VerifyDistances(g, source, dist); err != nil {
			fail("VERIFY FAILED: %v", err)
		}
		fmt.Fprintln(report, "verify: certificate OK")
	}
}
