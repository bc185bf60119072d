// Command graphpack builds serving-ready graph snapshots: it loads or
// generates a graph, runs the (k, ρ)-preprocessing once, and writes a
// versioned, checksummed binary snapshot holding the CSR arrays, the
// per-vertex radii, and the original graph. ssspd loads such a snapshot
// in milliseconds without re-running preprocessing — the paper's Step 1
// paid once per graph instead of once per daemon start.
//
// The -graph flag names the input in the spec grammar ssspd's -graph
// flag takes after its "name=" (radiusstep.ParseGraphSpec): one of
// gen=FAMILY, file=PATH or snapshot=PATH, then n, seed, weights, rho,
// k, heuristic and landmarks (-raw takes only the first six). File
// formats are auto-detected: the native text format, DIMACS ".gr"
// ("p sp" / 1-indexed "a u v w" lines), headerless "u v [w]" edge
// lists, or an existing snapshot, whose input graph is re-packed with
// the new parameters.
//
// Examples:
//
//	graphpack -graph file=USA-road-d.NY.gr,rho=64 -o ny.snap
//	graphpack -graph gen=road,n=200000,weights=10000,rho=64,k=3 -o road.snap
//	graphpack -graph file=web.tsv -raw -o web.snap        # convert only, no radii
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
	graphSpec := flag.String("graph", "", "input graph spec: gen=FAMILY|file=PATH|snapshot=PATH[,n=N][,seed=S][,weights=W][,rho=R][,k=K][,heuristic=H][,landmarks=L]")
	order := flag.String("order", "none", "cache-locality vertex order: bfs|degree|none; the snapshot stores the permutation and ssspd maps ids transparently")
	raw := flag.Bool("raw", false, "skip preprocessing: write a graph-only snapshot (no radii)")
	out := flag.String("o", "", "output snapshot path (required)")
	flag.Parse()

	if *out == "" {
		fail("graphpack: -o OUTPUT is required")
	}
	keys := []string{"gen", "file", "snapshot", "n", "seed", "weights"}
	if !*raw {
		keys = append(keys, "rho", "k", "heuristic", "landmarks")
	}
	spec, err := rs.ParseGraphSpec(*graphSpec, keys...)
	if err != nil {
		fail("graphpack: %v", err)
	}
	opt, err := spec.Options()
	if err != nil {
		fail("graphpack: %v", err)
	}

	// Load or generate. A snapshot input yields its true original graph
	// (LoadGraphFile's contract), so re-packing with new parameters
	// never re-shortcuts an already-augmented graph.
	t0 := time.Now()
	g, format, err := spec.Load()
	switch {
	// The two snapshot failure classes need different operator action,
	// so report them distinctly: a truncated file is a bad copy
	// (re-fetch it), a corrupt one needs re-packing.
	case errors.Is(err, rs.ErrSnapshotTruncated):
		fail("graphpack: %s is a truncated snapshot (short file — re-fetch or re-copy it): %v", spec.Source(), err)
	case errors.Is(err, rs.ErrSnapshotCorrupt):
		fail("graphpack: %s is a corrupt snapshot (bad checksum or structure — rebuild it with graphpack): %v", spec.Source(), err)
	case err != nil:
		fail("graphpack: %v", err)
	}
	fmt.Fprintf(os.Stderr, "loaded %s (%s): n=%d m=%d L=%g (%v)\n",
		spec.Source(), format, g.NumVertices(), g.NumEdges(), g.MaxWeight(), time.Since(t0).Round(time.Millisecond))

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
		if spec.Landmarks > 0 {
			solver, err := rs.NewSolverPre(pre, rs.EngineAuto)
			if err != nil {
				fail("graphpack: %v", err)
			}
			t2 := time.Now()
			built, err := solver.BuildLandmarks(spec.Landmarks, rs.LandmarksFarthest)
			if err != nil {
				fail("graphpack: landmarks: %v", err)
			}
			snap.Landmarks, snap.LandmarkDist = solver.LandmarkData()
			fmt.Fprintf(os.Stderr, "landmarks: built %d (farthest) (%v)\n",
				built, time.Since(t2).Round(time.Millisecond))
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
