// Command graphpack builds serving-ready graph snapshots: it loads or
// generates a graph, runs the (k, ρ)-preprocessing once, and writes a
// versioned, checksummed binary snapshot holding the CSR arrays, the
// per-vertex radii, and the original graph. ssspd loads such a snapshot
// in milliseconds without re-running preprocessing — the paper's Step 1
// paid once per graph instead of once per daemon start.
//
// Input formats are auto-detected: the native text format, DIMACS ".gr"
// ("p sp" / 1-indexed "a u v w" lines), headerless "u v [w]" edge
// lists, or an existing snapshot (re-packing with new parameters).
//
// Examples:
//
//	graphpack -in USA-road-d.NY.gr -rho 64 -o ny.snap
//	graphpack -gen road -n 200000 -weights 10000 -rho 64 -k 3 -o road.snap
//	graphpack -in web.tsv -raw -o web.snap        # convert only, no radii
//	ssspd -graph ny=snapshot=ny.snap
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	rs "radiusstep"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	in := flag.String("in", "", "input graph file (text|dimacs|edgelist|snapshot, auto-detected)")
	gen := flag.String("gen", "", "generate instead: grid2d|grid3d|road|web|er|rmat|smallworld|comb")
	n := flag.Int("n", 100000, "approximate vertex count for -gen")
	seed := flag.Uint64("seed", 42, "generator seed")
	weights := flag.Int("weights", 0, "assign uniform integer weights in [1, W] (0 = keep)")
	connected := flag.Bool("connected", false, "keep only the largest connected component")
	rho := flag.Int("rho", 0, "ball size ρ (0 = solver default 32)")
	k := flag.Int("k", 0, "hop budget k (0 = solver default: 4, or 1 with -heuristic direct)")
	heuristic := flag.String("heuristic", "", "shortcut heuristic for k>1: direct|greedy|dp")
	order := flag.String("order", "none", "cache-locality vertex order: bfs|degree|none; the snapshot stores the permutation and ssspd maps ids transparently")
	raw := flag.Bool("raw", false, "skip preprocessing: write a graph-only snapshot (no radii)")
	landmarks := flag.Int("landmarks", 0, "build K ALT landmark distance vectors and pack them into the snapshot (goal-directed route pruning; needs preprocessing)")
	lmStrategy := flag.String("landmark-strategy", "farthest", "landmark selection: farthest|degree")
	out := flag.String("o", "", "output snapshot path (required)")
	flag.Parse()

	if *out == "" {
		fail("graphpack: -o OUTPUT is required")
	}
	if (*in == "") == (*gen == "") {
		fail("graphpack: exactly one of -in or -gen is required")
	}
	if *raw && (*rho != 0 || *k != 0 || *heuristic != "") {
		fail("graphpack: -raw skips preprocessing; -rho/-k/-heuristic do not apply")
	}
	if *raw && *landmarks != 0 {
		fail("graphpack: -landmarks needs preprocessed radii; it does not apply with -raw")
	}
	if *landmarks < 0 || *landmarks > rs.MaxLandmarks {
		fail("graphpack: -landmarks %d out of range [0,%d]", *landmarks, rs.MaxLandmarks)
	}

	// Load or generate.
	t0 := time.Now()
	var (
		g      *rs.Graph
		origin string
	)
	if *in != "" {
		// Snapshot inputs yield the true original graph (LoadGraphFile's
		// contract), so re-packing with new parameters never re-shortcuts
		// an already-augmented graph.
		var format rs.GraphFormat
		var err error
		g, format, err = rs.LoadGraphFile(*in)
		switch {
		// The two snapshot failure classes need different operator
		// action, so report them distinctly: a truncated file is a bad
		// copy (re-fetch it), a corrupt one needs re-packing.
		case errors.Is(err, rs.ErrSnapshotTruncated):
			fail("graphpack: %s is a truncated snapshot (short file — re-fetch or re-copy it): %v", *in, err)
		case errors.Is(err, rs.ErrSnapshotCorrupt):
			fail("graphpack: %s is a corrupt snapshot (bad checksum or structure — rebuild it with graphpack): %v", *in, err)
		case err != nil:
			fail("graphpack: %v", err)
		}
		origin = fmt.Sprintf("%s (%s)", *in, format)
	} else {
		var err error
		g, err = rs.GenerateByName(*gen, *n, *seed)
		if err != nil {
			fail("graphpack: %v", err)
		}
		origin = fmt.Sprintf("gen:%s,n=%d,seed=%d", *gen, *n, *seed)
	}
	if *connected {
		g, _ = rs.LargestComponent(g)
	}
	if *weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, *weights, *seed+1)
	}
	loadTime := time.Since(t0)
	fmt.Fprintf(os.Stderr, "loaded %s: n=%d m=%d L=%g (%v)\n",
		origin, g.NumVertices(), g.NumEdges(), g.MaxWeight(), loadTime.Round(time.Millisecond))

	// Relabel for cache locality BEFORE preprocessing, so the radii, the
	// shortcut edges, and both stored graphs live in the reordered id
	// space; the permutation rides along in the snapshot and the daemon
	// maps queries back to original ids transparently.
	perm, err := rs.OrderByName(g, *order)
	if err != nil {
		fail("graphpack: %v", err)
	}
	if perm != nil {
		t1 := time.Now()
		g = rs.ApplyOrder(g, perm)
		fmt.Fprintf(os.Stderr, "reordered vertices (%s) (%v)\n", *order, time.Since(t1).Round(time.Millisecond))
	}

	// Preprocess (unless -raw) and assemble the snapshot.
	var snap *rs.Snapshot
	if *raw {
		snap = &rs.Snapshot{G: g, Perm: perm}
		fmt.Fprintf(os.Stderr, "raw conversion: no radii; ssspd will preprocess at load time\n")
	} else {
		opt := rs.Options{Rho: *rho, K: *k}
		if *heuristic != "" {
			h, err := rs.ParseHeuristic(*heuristic)
			if err != nil {
				fail("graphpack: %v", err)
			}
			opt.Heuristic = h
			if h == rs.HeuristicDirect && opt.K == 0 {
				opt.K = 1 // direct is the (1,ρ) construction
			}
		}
		t1 := time.Now()
		pre, err := rs.Preprocess(g, opt)
		if err != nil {
			fail("graphpack: preprocess: %v", err)
		}
		eff := opt.WithDefaults()
		snap, err = rs.NewSnapshot(pre, opt)
		if err != nil {
			fail("graphpack: %v", err)
		}
		snap.Perm = perm
		fmt.Fprintf(os.Stderr, "preprocessed rho=%d k=%d heuristic=%s: +%d shortcuts, visited %d, scanned %d (%v)\n",
			eff.Rho, eff.K, eff.Heuristic, pre.Added, pre.Visited, pre.EdgesScanned,
			time.Since(t1).Round(time.Millisecond))

		// Landmark vectors are computed in the snapshot's (possibly
		// reordered) id space, so the daemon restores them without any
		// remapping: pruning always runs on stored ids.
		if *landmarks > 0 {
			strat, err := rs.ParseLandmarkStrategy(*lmStrategy)
			if err != nil {
				fail("graphpack: %v", err)
			}
			solver, err := rs.NewSolverPre(pre, rs.EngineAuto)
			if err != nil {
				fail("graphpack: %v", err)
			}
			t2 := time.Now()
			built, err := solver.BuildLandmarks(*landmarks, strat)
			if err != nil {
				fail("graphpack: landmarks: %v", err)
			}
			snap.Landmarks, snap.LandmarkDist = solver.LandmarkData()
			fmt.Fprintf(os.Stderr, "landmarks: built %d (%s) (%v)\n",
				built, strat, time.Since(t2).Round(time.Millisecond))
		}
	}

	t2 := time.Now()
	if err := rs.WriteSnapshotFile(*out, snap); err != nil {
		fail("graphpack: write: %v", err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fail("graphpack: stat: %v", err)
	}
	radii := "no"
	if snap.Radii != nil {
		radii = "yes"
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %.1f MiB, radii=%s, landmarks=%d (%v)\n",
		*out, float64(st.Size())/(1<<20), radii, len(snap.Landmarks), time.Since(t2).Round(time.Millisecond))
}
