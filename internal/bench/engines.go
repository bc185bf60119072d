package bench

// This file is the engine benchmark: every requested engine timed at
// every requested GOMAXPROCS value over one preprocessed graph, written
// as one record schema (the committed BENCH_<n>.json files) and gated
// against a committed record by Compare. Dong et al. (arXiv:2105.06145)
// report every engine across core counts in one table; a record has the
// same shape.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	rs "radiusstep"
)

// Config describes one workload: the graph, the engines, and the
// GOMAXPROCS values to time them at.
type Config struct {
	Gen     string // generator family (grid2d, road, web, rmat, ...)
	N       int    // approximate vertex count
	Weights int    // uniform integer weights in [1, Weights]; 0 keeps generator weights
	Rho     int    // preprocessing ball size (and the ρ-stepping quota)
	Seed    uint64
	Trials  int      // timed solves per cell
	Engines []string // engine names; empty means all five
	Procs   []int    // GOMAXPROCS values, e.g. 1,2,4,8; empty means the current one
}

// Cell is one (engine, procs) measurement. Speedup is relative to the
// same engine at the workload's first procs value, so with the
// conventional 1,2,4,... sweep it reads directly as parallel speedup.
// The solve counters come from the cell's last timed solve; the
// frontier* fields are the ordered-frontier substrate's operation
// counters, nonzero only for the engines built on it (parallel, rho) —
// the same counters /v1/stats aggregates. Every full solve allocates
// its returned vector, so AllocsPerSolve is 0 only in a record that did
// not measure allocations (BENCH_6).
type Cell struct {
	Procs             int     `json:"procs"`
	P50Micros         float64 `json:"p50Micros"`
	P90Micros         float64 `json:"p90Micros"`
	Speedup           float64 `json:"speedup"`
	AllocsPerSolve    float64 `json:"allocsPerSolve"`
	BytesPerSolve     float64 `json:"bytesPerSolve"`
	Steps             int     `json:"steps"`
	Substeps          int     `json:"substeps"`
	QuotaAdjustments  int     `json:"quotaAdjustments,omitempty"`
	Relaxations       int64   `json:"relaxations"`
	FrontierPushes    int64   `json:"frontierPushes,omitempty"`
	FrontierBatches   int64   `json:"frontierBatches,omitempty"`
	FrontierMerges    int64   `json:"frontierMerges,omitempty"`
	FrontierExtracted int64   `json:"frontierExtracted,omitempty"`
	FrontierStale     int64   `json:"frontierStale,omitempty"`
	FrontierSelects   int64   `json:"frontierSelects,omitempty"`
}

// Row is one engine's cells, one per procs value in the workload's order.
type Row struct {
	Engine string `json:"engine"`
	Cells  []Cell `json:"cells"`
}

// Report is one workload of a record: the configuration that re-runs
// it, the generated graph's size, and one row per engine.
type Report struct {
	Graph    string `json:"graph"`
	N        int    `json:"n"`
	Seed     uint64 `json:"seed"`
	Weights  int    `json:"weights"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Rho      int    `json:"rho"`
	Trials   int    `json:"trials"`
	Procs    []int  `json:"procs"`
	Rows     []Row  `json:"rows"`
}

// Baseline is a record: the envelope of every BENCH_<n>.json, written by
// -engines/-procs (one workload) and -scaling-baseline (DefaultConfigs).
// HostProcs records runtime.NumCPU() on the measuring host (absent from
// BENCH_4/5): speedup columns measured where HostProcs < procs are
// oversubscription artifacts, not parallel speedup.
type Baseline struct {
	Kind      string   `json:"kind"`
	HostProcs int      `json:"hostProcs"`
	Workloads []Report `json:"workloads"`
}

// recordKind is every record's "kind". It names the scaling sweep, the
// first harness that wrote the envelope.
const recordKind = "scaling"

// AllEngineNames lists the five engines in framework order.
func AllEngineNames() []string {
	return []string{"sequential", "parallel", "flat", "delta", "rho"}
}

// Measure builds one preprocessed solver and times every engine of cfg
// at every procs value of cfg through the per-query override path — the
// path the daemon's ?engine= parameter takes. The solver is shared by
// all cells, so they differ only in engine and available parallelism.
// The workspace pool is not: its buffers are grow-only and the
// per-worker relax buffers are sized by the worker count, so each procs
// value starts from a fresh pool, re-warmed by one untimed solve per
// engine. GOMAXPROCS is restored before returning.
func Measure(cfg Config) (*Report, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 9
	}
	if cfg.Rho == 0 {
		cfg.Rho = 32
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{runtime.GOMAXPROCS(0)}
	}
	for _, p := range cfg.Procs {
		if p < 1 {
			return nil, fmt.Errorf("bench: procs value %d < 1", p)
		}
	}
	names := cfg.Engines
	if len(names) == 0 {
		names = AllEngineNames()
	}
	engines := make([]rs.Engine, len(names))
	for i, name := range names {
		var err error
		if engines[i], err = rs.ParseEngine(name); err != nil {
			return nil, err
		}
	}
	g, err := rs.GenerateByName(cfg.Gen, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
	}
	// K 1: the committed BENCH_* baselines measure the (1,ρ) construction.
	solver, err := rs.NewSolver(g, rs.Options{Rho: cfg.Rho, K: 1})
	if err != nil {
		return nil, err
	}

	report := &Report{
		Graph:    cfg.Gen,
		N:        cfg.N,
		Seed:     cfg.Seed,
		Weights:  cfg.Weights,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Rho:      cfg.Rho,
		Trials:   cfg.Trials,
		Procs:    cfg.Procs,
	}
	for _, name := range names {
		report.Rows = append(report.Rows, Row{Engine: name})
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		solver.ResetWorkspaces()
		for i, eng := range engines {
			cell, err := measureCell(solver, eng, g.NumVertices(), cfg.Trials)
			if err != nil {
				return nil, fmt.Errorf("engine %s at procs=%d: %v", names[i], procs, err)
			}
			cell.Procs = procs
			row := &report.Rows[i]
			if cell.P50Micros > 0 {
				cell.Speedup = 1
				if len(row.Cells) > 0 {
					cell.Speedup = row.Cells[0].P50Micros / cell.P50Micros
				}
			}
			row.Cells = append(row.Cells, cell)
		}
	}
	return report, nil
}

// measureCell times trials full solves of eng from sources spread over
// the id space by a fixed stride, after one untimed warm-up solve (which
// also wakes the worker pool above one proc), and counts the timed
// loop's allocations.
func measureCell(s *rs.Solver, eng rs.Engine, n, trials int) (Cell, error) {
	if _, _, err := s.DistancesWith(0, eng); err != nil {
		return Cell{}, err
	}
	durs := make([]float64, trials)
	var last rs.Stats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range durs {
		src := rs.Vertex((i * 7919) % n)
		t0 := time.Now()
		_, st, err := s.DistancesWith(src, eng)
		durs[i] = float64(time.Since(t0).Microseconds())
		if err != nil {
			return Cell{}, err
		}
		last = st
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(durs)
	return Cell{
		P50Micros:         durs[len(durs)/2],
		P90Micros:         durs[len(durs)*9/10],
		AllocsPerSolve:    float64(after.Mallocs-before.Mallocs) / float64(trials),
		BytesPerSolve:     float64(after.TotalAlloc-before.TotalAlloc) / float64(trials),
		Steps:             last.Steps,
		Substeps:          last.Substeps,
		QuotaAdjustments:  last.QuotaAdjustments,
		Relaxations:       last.Relaxations,
		FrontierPushes:    last.Frontier.Pushes,
		FrontierBatches:   last.Frontier.Batches,
		FrontierMerges:    last.Frontier.Merges,
		FrontierExtracted: last.Frontier.Extracted,
		FrontierStale:     last.Frontier.Stale,
		FrontierSelects:   last.Frontier.Selects,
	}, nil
}

// MeasureSet measures every config into one record, printing each
// workload's table to progress when it is not nil.
func MeasureSet(cfgs []Config, progress io.Writer) (*Baseline, error) {
	b := &Baseline{Kind: recordKind, HostProcs: runtime.NumCPU()}
	for _, cfg := range cfgs {
		if progress != nil {
			fmt.Fprintf(progress, "# measuring %s n=%d trials=%d\n", cfg.Gen, cfg.N, cfg.Trials)
		}
		r, err := Measure(cfg)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			fmt.Fprint(progress, FormatTable(r))
		}
		b.Workloads = append(b.Workloads, *r)
	}
	return b, nil
}

// DefaultConfigs is the -scaling-baseline workload set: the two 50k
// workloads of BENCH_4/5 plus rmat and grid2d sized past a million
// vertices, where parallelism has enough work to pay. The big workloads
// time four engines (delta is covered at 50k; the speedup gate reads
// parallel/flat/rho) with fewer trials to bound wall time —
// preprocessing is Θ(nρ²) and dominates the run as it is. rmat
// deduplicates edges, so its N overshoots to land >= 1M distinct
// vertices.
func DefaultConfigs() []Config {
	procs := []int{1, 2, 4, 8}
	big := []string{"sequential", "parallel", "flat", "rho"}
	return []Config{
		{Gen: "rmat", N: 50000, Weights: 10000, Rho: 32, Seed: 42, Trials: 9, Procs: procs},
		{Gen: "grid2d", N: 50000, Weights: 10000, Rho: 32, Seed: 42, Trials: 9, Procs: procs},
		{Gen: "rmat", N: 2100000, Weights: 10000, Rho: 32, Seed: 42, Trials: 3, Procs: procs, Engines: big},
		{Gen: "grid2d", N: 1000000, Weights: 10000, Rho: 32, Seed: 42, Trials: 3, Procs: procs, Engines: big},
	}
}

// FormatTable renders a workload as an aligned text table: one row per
// engine, a p50 and speedup column per procs value. Engines whose solves
// adapted their ρ quota get a trailing step-accounting annotation.
func FormatTable(r *Report) string {
	out := fmt.Sprintf("scaling %s (n=%d, m=%d, rho=%d, trials=%d)\n",
		r.Graph, r.Vertices, r.Edges, r.Rho, r.Trials)
	out += fmt.Sprintf("%-12s", "engine")
	for _, p := range r.Procs {
		out += fmt.Sprintf(" %9s %8s", fmt.Sprintf("p%d (µs)", p), "speedup")
	}
	out += "\n"
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-12s", row.Engine)
		for _, c := range row.Cells {
			out += fmt.Sprintf(" %9.0f %7.2fx", c.P50Micros, c.Speedup)
		}
		if k := len(row.Cells); k > 0 && row.Cells[k-1].QuotaAdjustments > 0 {
			out += fmt.Sprintf("  [steps=%d quotaadj=%d]",
				row.Cells[k-1].Steps, row.Cells[k-1].QuotaAdjustments)
		}
		out += "\n"
	}
	return out
}

// ReadBaseline parses a record file. It rejects anything but the record
// envelope with at least one workload, and a workload whose rows do not
// hold one cell per procs value in the workload's procs order.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: record %s: %v", path, err)
	}
	if b.Kind != recordKind || len(b.Workloads) == 0 {
		return nil, fmt.Errorf("bench: record %s is not a %q envelope with workloads", path, recordKind)
	}
	for _, wl := range b.Workloads {
		if len(wl.Procs) == 0 || len(wl.Rows) == 0 {
			return nil, fmt.Errorf("bench: record %s: workload %s has no procs or rows", path, wl.Graph)
		}
		for _, row := range wl.Rows {
			ok := len(row.Cells) == len(wl.Procs)
			for i := 0; ok && i < len(row.Cells); i++ {
				ok = row.Cells[i].Procs == wl.Procs[i]
			}
			if !ok {
				return nil, fmt.Errorf("bench: record %s: %s/%s cells do not match procs %v",
					path, wl.Graph, row.Engine, wl.Procs)
			}
		}
	}
	return &b, nil
}

// LatestBaseline returns the highest-numbered BENCH_<n>.json in dir —
// the freshest committed record, so `radius-bench -compare latest`
// always gates against the newest one without hardcoding a file name.
func LatestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		name := filepath.Base(m)
		var n int
		if _, err := fmt.Sscanf(name, "BENCH_%d.json", &n); err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("bench: no BENCH_<n>.json baseline found in %s", dir)
	}
	return best, nil
}

// The gates Compare applies to each re-run cell.
const (
	// maxP50Regress caps the fresh p50 at a workload's first procs
	// column (procs 1 in every committed record) at 1.10x the record's:
	// multicore wins must not be bought by slowing the single-core path.
	maxP50Regress = 0.10
	// allocFactor and allocNoiseFloor: allocations per solve regress
	// when they exceed allocFactor times the record's AND exceed it by
	// more than allocNoiseFloor — an engine drifting from 1.4 to 4
	// allocs trips a bare 2x ratio but is runtime noise, not a leak.
	allocFactor     = 2
	allocNoiseFloor = 256
	// defaultMinSpeedup is the p50 speedup parallel, flat and rho must
	// reach at speedupGateProcs on workloads of speedupGateMinVerts or
	// more vertices, on hosts with at least speedupGateProcs CPUs.
	defaultMinSpeedup   = 1.8
	speedupGateProcs    = 4
	speedupGateMinVerts = 1000000
)

// speedupGated reports whether the speedup gate reads an engine: the
// ones routed through the parallel relax kernels and the ordered-
// frontier substrate.
func speedupGated(engine string) bool {
	return engine == "parallel" || engine == "flat" || engine == "rho"
}

// allocRegressed is the allocation-gate predicate. A zero base is a
// record without allocation counts, which is not gated.
func allocRegressed(base, cur float64) bool {
	return base > 0 && cur > allocFactor*base && cur-base > allocNoiseFloor
}

// Compare re-runs every workload of the record at path, each cell at
// its recorded procs value, prints base and fresh p50 per cell with the
// ratio, the fresh speedup, and allocations where the record has them,
// and returns an error — the CI-gate signal — naming every cell that
// fails a gate (see compareReport). minSpeedup <= 0 selects 1.8.
func Compare(w io.Writer, path string, minSpeedup float64) error {
	base, err := ReadBaseline(path)
	if err != nil {
		return err
	}
	if minSpeedup <= 0 {
		minSpeedup = defaultMinSpeedup
	}
	hostCPUs := runtime.NumCPU()
	if hostCPUs < speedupGateProcs {
		fmt.Fprintf(w, "# warning: host has %d CPU(s) < %d; speedup gate skipped (record hostProcs=%d)\n",
			hostCPUs, speedupGateProcs, base.HostProcs)
	}
	var failures []string
	for i := range base.Workloads {
		bw := &base.Workloads[i]
		var engines []string
		for _, row := range bw.Rows {
			engines = append(engines, row.Engine)
		}
		cur, err := Measure(Config{
			Gen: bw.Graph, N: bw.N, Weights: bw.Weights, Rho: bw.Rho,
			Seed: bw.Seed, Trials: bw.Trials, Engines: engines, Procs: bw.Procs,
		})
		if err != nil {
			return fmt.Errorf("bench: re-running %s workload: %v", bw.Graph, err)
		}
		failures = append(failures, compareReport(w, bw, cur, minSpeedup, hostCPUs)...)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %d gate failure(s): %v", len(failures), failures)
	}
	return nil
}

// compareReport prints one workload's cells, base against cur, and
// returns a line per failed gate. The gates:
//   - p50: at the first procs column, cur may be at most 1+maxP50Regress
//     times base;
//   - allocations: every cell whose base recorded them (allocRegressed);
//   - speedup: with hostCPUs >= speedupGateProcs, speedupGated engines
//     on workloads of speedupGateMinVerts or more vertices must reach
//     minSpeedup at speedupGateProcs.
//
// cur must come from Measure over base's configuration, so its rows and
// cells line up with base's. Improvements never fail a gate.
func compareReport(w io.Writer, base, cur *Report, minSpeedup float64, hostCPUs int) []string {
	fmt.Fprintf(w, "workload %s (n=%d, m=%d, rho=%d, trials=%d)\n",
		base.Graph, cur.Vertices, cur.Edges, base.Rho, base.Trials)
	fmt.Fprintf(w, "  %-12s %5s %14s %14s %8s %8s %12s %12s\n",
		"engine", "procs", "base p50 (µs)", "now p50 (µs)", "ratio", "speedup", "base allocs", "now allocs")
	speedupGate := hostCPUs >= speedupGateProcs && base.Vertices >= speedupGateMinVerts
	var failures []string
	for ri, bRow := range base.Rows {
		for ci, b := range bRow.Cells {
			c := cur.Rows[ri].Cells[ci]
			ratio := c.P50Micros / b.P50Micros
			id := fmt.Sprintf("%s/%s procs=%d", base.Graph, bRow.Engine, b.Procs)
			mark, allocs := "", fmt.Sprintf(" %12s %12s", "-", "-")
			if ci == 0 && b.P50Micros > 0 && ratio > 1+maxP50Regress {
				mark += "  REGRESSED"
				failures = append(failures, fmt.Sprintf("%s p50 %.0fµs -> %.0fµs (%.2fx > %.2fx)",
					id, b.P50Micros, c.P50Micros, ratio, 1+maxP50Regress))
			}
			if b.AllocsPerSolve > 0 {
				allocs = fmt.Sprintf(" %12.0f %12.0f", b.AllocsPerSolve, c.AllocsPerSolve)
			}
			if allocRegressed(b.AllocsPerSolve, c.AllocsPerSolve) {
				mark += "  ALLOCS-REGRESSED"
				failures = append(failures, fmt.Sprintf("%s allocs/solve %.0f -> %.0f (>%dx)",
					id, b.AllocsPerSolve, c.AllocsPerSolve, allocFactor))
			}
			if speedupGate && speedupGated(bRow.Engine) && c.Procs == speedupGateProcs && c.Speedup < minSpeedup {
				mark += "  SPEEDUP"
				failures = append(failures, fmt.Sprintf("%s speedup %.2fx < %.1fx", id, c.Speedup, minSpeedup))
			}
			fmt.Fprintf(w, "  %-12s %5d %14.0f %14.0f %7.2fx %7.2fx%s%s\n",
				bRow.Engine, b.Procs, b.P50Micros, c.P50Micros, ratio, c.Speedup, allocs, mark)
		}
	}
	return failures
}

// GateMonotonic is the gate of a fresh -procs sweep: every engine's p50
// at the last procs value must reach minSpeedup times its p50 at the
// first (so 1.0 asserts "more cores is at least not slower"). It is
// skipped with a warning when hostCPUs is below the last procs value —
// oversubscribed timings say nothing about scaling.
func GateMonotonic(w io.Writer, r *Report, minSpeedup float64, hostCPUs int) error {
	if len(r.Procs) < 2 {
		return fmt.Errorf("bench: speedup gate needs at least two procs values")
	}
	last := r.Procs[len(r.Procs)-1]
	if hostCPUs < last {
		fmt.Fprintf(w, "# warning: host has %d CPU(s) < %d; speedup gate skipped\n", hostCPUs, last)
		return nil
	}
	var failures []string
	for _, row := range r.Rows {
		if c := row.Cells[len(row.Cells)-1]; c.Speedup < minSpeedup {
			failures = append(failures, fmt.Sprintf("%s %.2fx at %d procs < %.2fx",
				row.Engine, c.Speedup, last, minSpeedup))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %d speedup-gate failure(s): %v", len(failures), failures)
	}
	return nil
}
