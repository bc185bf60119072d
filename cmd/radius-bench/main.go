// Command radius-bench regenerates the paper's tables and figures, and
// benchmarks the stepping engines.
//
// Usage:
//
//	radius-bench -list
//	radius-bench -exp table4 -scale default
//	radius-bench -exp all -scale tiny
//	radius-bench -engines all -graph gen=road,n=100000,weights=10000 -trials 9
//	radius-bench -engines seq,delta,rho -graph gen=web,n=50000
//	radius-bench -procs 1,2,4,8 -engines seq,par -min-speedup 1.0
//	radius-bench -compare BENCH_5.json
//	radius-bench -compare latest
//	radius-bench -scaling-baseline BENCH_7.json
//
// The engine benchmark (-engines, -procs) times each engine at each
// listed GOMAXPROCS value (default: the current one) over one
// preprocessed graph, through the per-query engine-override path the
// daemon serves. The -graph flag names that graph in the spec grammar
// of the other tools (radiusstep.ParseGraphSpec), restricted to
// gen=FAMILY and its n, seed, weights and rho. It prints a one-workload
// record — per cell p50/p90 latency, speedup over the first procs
// value, allocations per solve and the solve counters — as JSON on
// stdout and a table on stderr.
// With -min-speedup X, every engine's p50 at the last procs value must
// reach X times its p50 at the first; the gate skips itself with a
// warning on hosts with fewer CPUs than the last procs value.
//
// The -compare mode re-runs every workload of a record, each cell at
// its recorded procs value, and exits nonzero when a gate fails: p50 at
// a workload's first procs column more than 10% above the record,
// allocations per solve above 2x the record and more than 256 above it,
// or (on hosts with 4 or more CPUs, workloads of 1M or more vertices)
// parallel, flat or rho below -min-speedup (default 1.8x) at 4 procs.
// The record name "latest" resolves to the highest-numbered
// BENCH_<n>.json in the working directory. -scaling-baseline measures
// the default workload set (rmat and grid2d at 50k and past 1M
// vertices, procs 1,2,4,8) and writes the record to the named file.
//
// Scales: tiny (seconds), default (minutes), full (closer to the paper's
// sizes; expect long runtimes — preprocessing is Θ(nρ²)).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	rs "radiusstep"
	"radiusstep/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	scale := flag.String("scale", "default", "tiny | default | full")
	list := flag.Bool("list", false, "list experiment ids and exit")
	engines := flag.String("engines", "", "engine benchmark: 'all' or a comma list (seq,par,flat,delta,rho); record JSON to stdout, table to stderr")
	graphSpec := flag.String("graph", "gen=road,n=50000,weights=10000", "engine benchmark: graph spec gen=FAMILY[,n=N][,seed=S][,weights=W][,rho=R]; weights=W draws integer weights from [1, W] and rho is the preprocessing ball size (default 32)")
	trials := flag.Int("trials", 9, "engine benchmark: timed solves per engine and procs value")
	compare := flag.String("compare", "", "regression gate: re-run the workloads of this record (e.g. BENCH_5.json, or 'latest' for the newest committed BENCH_<n>.json) at their recorded procs values and exit nonzero on a p50, allocation or speedup regression")
	procs := flag.String("procs", "", "engine benchmark: comma list of GOMAXPROCS values (e.g. 1,2,4,8); default the current one")
	minSpeedup := flag.Float64("min-speedup", 0, "engine benchmark: require every engine's p50 speedup at the last procs value to reach this factor (1.0 = monotonicity; 0 disables); skipped with a warning when the host has fewer CPUs. In compare mode, overrides the default 1.8x gate at 4 procs")
	scalingBaseline := flag.String("scaling-baseline", "", "measure the default workload set (50k + >=1M rmat/grid2d at procs 1,2,4,8) and write the record JSON to this file")
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *compare != "" {
		path := *compare
		if path == "latest" {
			var err error
			if path, err = bench.LatestBaseline("."); err != nil {
				exit(2, err)
			}
			fmt.Printf("# baseline: %s\n", path)
		}
		if err := bench.Compare(os.Stdout, path, *minSpeedup); err != nil {
			exit(1, err)
		}
		return
	}
	if *scalingBaseline != "" {
		b, err := bench.MeasureSet(bench.DefaultConfigs(), os.Stderr)
		if err != nil {
			exit(1, err)
		}
		f, err := os.Create(*scalingBaseline)
		if err != nil {
			exit(1, err)
		}
		werr := writeJSON(f, b)
		if cerr := f.Close(); werr != nil || cerr != nil {
			exit(1, fmt.Errorf("scaling baseline: write %s: %v%v", *scalingBaseline, werr, cerr))
		}
		fmt.Fprintf(os.Stderr, "# scaling baseline (%d workloads, hostProcs=%d) written to %s\n",
			len(b.Workloads), b.HostProcs, *scalingBaseline)
		return
	}
	if *engines != "" || *procs != "" {
		spec, err := rs.ParseGraphSpec(*graphSpec, "gen", "n", "seed", "weights", "rho")
		if err == nil {
			_, err = spec.Options()
		}
		if err != nil {
			exit(2, err)
		}
		cfg := bench.Config{Gen: spec.Gen, N: spec.N, Weights: spec.Weights, Rho: spec.Rho, Seed: spec.Seed, Trials: *trials}
		if *engines != "" && *engines != "all" {
			for _, raw := range strings.Split(*engines, ",") {
				e, err := rs.ParseEngine(strings.TrimSpace(raw))
				if err != nil {
					exit(2, err)
				}
				cfg.Engines = append(cfg.Engines, e.String())
			}
		}
		if *procs != "" {
			for _, raw := range strings.Split(*procs, ",") {
				p, err := strconv.Atoi(strings.TrimSpace(raw))
				if err != nil || p < 1 {
					exit(2, fmt.Errorf("bad -procs value %q (want a comma list of integers >= 1)", raw))
				}
				cfg.Procs = append(cfg.Procs, p)
			}
		}
		b, err := bench.MeasureSet([]bench.Config{cfg}, os.Stderr)
		if err != nil {
			exit(1, err)
		}
		if err := writeJSON(os.Stdout, b); err != nil {
			exit(1, err)
		}
		if *minSpeedup > 0 {
			if err := bench.GateMonotonic(os.Stderr, &b.Workloads[0], *minSpeedup, runtime.NumCPU()); err != nil {
				exit(1, err)
			}
		}
		return
	}
	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		exit(2, err)
	}
	start := time.Now()
	if err := bench.RunExperiment(os.Stdout, *exp, sc); err != nil {
		exit(1, err)
	}
	fmt.Printf("# done in %v (scale=%s)\n", time.Since(start).Round(time.Millisecond), sc.Name)
}

// writeJSON writes v as indented JSON.
func writeJSON(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// exit prints err to stderr and exits with code.
func exit(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}
