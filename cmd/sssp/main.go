// Command sssp runs one shortest-path computation on a generated or
// loaded graph and reports timings and round statistics.
//
// Examples:
//
//	sssp -gen grid2d -n 250000 -weights 10000 -algo radius -rho 64 -src 0
//	sssp -gen web -n 100000 -algo delta -delta 5000
//	sssp -in graph.txt -algo dijkstra -src 17
//	sssp -gen rmat -n 50000 -weights 10000 -src 0 -target 4999 -landmarks 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	rs "radiusstep"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

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

func buildGraph(kind string, n int, seed uint64) *rs.Graph {
	g, err := rs.GenerateByName(kind, n, seed)
	if err != nil {
		fail("%v (families: grid2d|grid3d|road|web|er|rmat|smallworld|comb)", err)
	}
	return g
}

// routeMode answers one point-to-point query with an early-terminated,
// optionally goal-directed solve and reports the route plus the solve's
// work counters (pruned= shows the relaxations landmark pruning saved).
func routeMode(g *rs.Graph, solver *rs.Solver, src, dst rs.Vertex, engine rs.Engine, landmarks int, strategy string, prune, verify bool) {
	if int(dst) >= g.NumVertices() {
		fail("target %d out of range", dst)
	}
	if landmarks > 0 {
		strat, err := rs.ParseLandmarkStrategy(strategy)
		if err != nil {
			fail("%v", err)
		}
		t0 := time.Now()
		built, err := solver.BuildLandmarks(landmarks, strat)
		if err != nil {
			fail("landmarks: %v", err)
		}
		fmt.Printf("landmarks: built %d (%s) in %v\n", built, strat, time.Since(t0).Round(time.Microsecond))
	}
	t0 := time.Now()
	path, d, st, err := solver.Route(src, dst, engine, prune)
	if err != nil {
		fail("route: %v", err)
	}
	elapsed := time.Since(t0)
	if math.IsInf(d, 1) {
		fmt.Printf("route: %v  %d..%d unreachable  %s\n", elapsed.Round(time.Microsecond), src, dst, st)
		return
	}
	fmt.Printf("route: %v  dist=%g hops=%d  %s\n", elapsed.Round(time.Microsecond), d, len(path)-1, st)
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
		fmt.Println("verify: route OK (path tight, distance matches dijkstra)")
	}
}

func main() {
	genKind := flag.String("gen", "", "generate a graph: grid2d|grid3d|road|web|er|rmat|smallworld|comb")
	n := flag.Int("n", 100000, "approximate vertex count for -gen")
	in := flag.String("in", "", "read a graph file instead of generating (format auto-detected)")
	weights := flag.Int("weights", 0, "assign uniform integer weights in [1, W] (0 = keep)")
	seed := flag.Uint64("seed", 42, "generator seed")
	src := flag.Int("src", 0, "source vertex")
	algo := flag.String("algo", "radius", "radius|dijkstra|delta|bellmanford|bfs")
	rho := flag.Int("rho", 32, "radius-stepping ball size")
	k := flag.Int("k", 0, "radius-stepping hop budget (0 = library default: 4, or 1 with -heuristic direct)")
	heuristic := flag.String("heuristic", "dp", "shortcut heuristic for k>1: direct|greedy|dp")
	engine := flag.String("engine", "auto", "stepping engine: auto|seq|par|flat|delta|rho")
	delta := flag.Float64("delta", 1000, "delta-stepping bucket width (-algo delta only; -engine delta derives its width from the graph)")
	verify := flag.Bool("verify", false, "verify the result certificate")
	traceOut := flag.String("trace", "", "write the solve timeline (steps, substeps, pool and frontier timings) as JSON to this file (-algo radius only; - for stdout)")
	target := flag.Int("target", -1, "route mode: answer a point-to-point query src..target with an early-terminated solve (-algo radius only)")
	landmarks := flag.Int("landmarks", 0, "route mode: build K ALT landmark vectors for goal-directed pruning (0 = none)")
	lmStrategy := flag.String("landmark-strategy", "farthest", "landmark selection: farthest|degree")
	prune := flag.Bool("prune", true, "route mode: apply goal-directed landmark pruning (needs -landmarks)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "delta" && *algo != "delta" {
			fail("-delta applies to -algo delta only, not -algo %s", *algo)
		}
	})

	var g *rs.Graph
	switch {
	case *in != "":
		g2, format, err := rs.LoadGraphFile(*in)
		if err != nil {
			fail("parse: %v", err)
		}
		fmt.Printf("loaded %s (%s)\n", *in, format)
		g = g2
	case *genKind != "":
		g = buildGraph(*genKind, *n, *seed)
	default:
		fail("need -gen or -in")
	}
	if *weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, *weights, *seed+1)
	}
	fmt.Printf("graph: n=%d m=%d L=%g\n", g.NumVertices(), g.NumEdges(), g.MaxWeight())
	if *src < 0 || *src >= g.NumVertices() {
		fail("source %d out of range", *src)
	}
	source := rs.Vertex(*src)

	var dist []float64
	switch *algo {
	case "radius":
		h, err := rs.ParseHeuristic(*heuristic)
		if err != nil {
			fail("%v", err)
		}
		if h == rs.HeuristicDirect && *k == 0 {
			*k = 1 // direct is the (1,ρ) construction
		}
		e, err := rs.ParseEngine(*engine)
		if err != nil {
			fail("%v", err)
		}
		t0 := time.Now()
		solver, err := rs.NewSolver(g, rs.Options{Rho: *rho, K: *k, Heuristic: h, Engine: e})
		if err != nil {
			fail("preprocess: %v", err)
		}
		pre := solver.Preprocessed()
		fmt.Printf("preprocess: %v (added %d shortcuts, visited %d, scanned %d)\n",
			time.Since(t0).Round(time.Microsecond), pre.Added, pre.Visited, pre.EdgesScanned)
		if *target >= 0 {
			routeMode(g, solver, source, rs.Vertex(*target), e, *landmarks, *lmStrategy, *prune, *verify)
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
			fmt.Printf("trace: engine=%s steps=%d substeps=%d written to %s\n",
				tl.Engine, len(tl.StepList), len(tl.SubstepList), *traceOut)
		} else {
			d, st, err = solver.Distances(source)
			if err != nil {
				fail("solve: %v", err)
			}
		}
		fmt.Printf("radius-stepping: %v  %s\n", time.Since(t1).Round(time.Microsecond), st)
		dist = d
	case "dijkstra":
		t0 := time.Now()
		dist = rs.Dijkstra(g, source)
		fmt.Printf("dijkstra: %v\n", time.Since(t0).Round(time.Microsecond))
	case "delta":
		t0 := time.Now()
		d, st := rs.DeltaStepping(g, source, *delta)
		fmt.Printf("delta-stepping: %v  steps=%d substeps=%d scanned=%d\n",
			time.Since(t0).Round(time.Microsecond), st.Steps, st.Substeps, st.EdgesScanned)
		dist = d
	case "bellmanford":
		t0 := time.Now()
		d, rounds := rs.BellmanFord(g, source)
		fmt.Printf("bellman-ford: %v  rounds=%d\n", time.Since(t0).Round(time.Microsecond), rounds)
		dist = d
	case "bfs":
		t0 := time.Now()
		hops, levels := rs.BFSParallel(g, source)
		fmt.Printf("parallel bfs: %v  levels=%d\n", time.Since(t0).Round(time.Microsecond), levels)
		reached := 0
		for _, h := range hops {
			if h >= 0 {
				reached++
			}
		}
		fmt.Printf("reached %d/%d vertices\n", reached, g.NumVertices())
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
	fmt.Printf("reached %d/%d vertices, max distance %g\n", reached, g.NumVertices(), maxD)
	if *verify {
		if err := rs.VerifyDistances(g, source, dist); err != nil {
			fail("VERIFY FAILED: %v", err)
		}
		fmt.Println("verify: certificate OK")
	}
}
