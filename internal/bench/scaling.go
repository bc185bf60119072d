package bench

// This file implements the -procs scaling mode: the engine matrix
// re-run at several GOMAXPROCS settings over one preprocessed graph,
// reporting per-engine speedup columns. It exists to answer the
// roadmap's standing question — does the parallel machinery actually
// win as cores are added, and where does it stop winning — with one
// command instead of N manually-varied runs.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	rs "radiusstep"
)

// ScalingConfig describes one scaling run: the engine-matrix workload
// plus the GOMAXPROCS values to sweep.
type ScalingConfig struct {
	Gen     string
	N       int
	Weights int
	Rho     int
	Seed    uint64
	Trials  int
	Engines []string // empty means all five
	Procs   []int    // GOMAXPROCS values, e.g. 1,2,4,8
}

// ScalingCell is one (engine, procs) measurement. Speedup is relative
// to the same engine at the sweep's first procs value, so with the
// conventional 1,2,4,... sweep it reads directly as parallel speedup.
// Steps and QuotaAdjustments come from the cell's last timed solve, so
// the adaptive-ρ step accounting is auditable per procs setting.
type ScalingCell struct {
	Procs            int     `json:"procs"`
	P50Micros        float64 `json:"p50Micros"`
	Speedup          float64 `json:"speedup"`
	Steps            int     `json:"steps,omitempty"`
	QuotaAdjustments int     `json:"quotaAdjustments,omitempty"`
}

// ScalingRow is one engine's sweep across the procs values.
type ScalingRow struct {
	Engine string        `json:"engine"`
	Cells  []ScalingCell `json:"cells"`
}

// ScalingReport is the JSON envelope emitted by RunScaling.
type ScalingReport struct {
	Graph    string       `json:"graph"`
	N        int          `json:"n"`
	Seed     uint64       `json:"seed"`
	Weights  int          `json:"weights"`
	Vertices int          `json:"vertices"`
	Edges    int          `json:"edges"`
	Rho      int          `json:"rho"`
	Trials   int          `json:"trials"`
	Procs    []int        `json:"procs"`
	Rows     []ScalingRow `json:"rows"`
}

// MeasureScaling builds one preprocessed solver and times every
// requested engine at every requested GOMAXPROCS value. The solver —
// graph, radii, and all preprocessing — is shared across the sweep so
// the cells differ only in available parallelism, not in cache or
// preprocessing state. The workspace pool, however, is NOT shared
// between procs settings: workspace buffers are grow-only and the
// per-worker relax buffers are sized by the worker count, so without a
// reset a procs=1 row measured after a procs=8 row would run on
// 8-worker-sized buffers (different footprint, different cache
// behavior). Each setting therefore starts from a fresh pool, re-warmed
// by one untimed solve per engine. GOMAXPROCS is restored before
// returning.
func MeasureScaling(cfg ScalingConfig) (*ScalingReport, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 9
	}
	if cfg.Rho == 0 {
		cfg.Rho = 32
	}
	if len(cfg.Procs) == 0 {
		return nil, fmt.Errorf("bench: scaling mode needs at least one procs value")
	}
	for _, p := range cfg.Procs {
		if p < 1 {
			return nil, fmt.Errorf("bench: procs value %d < 1", p)
		}
	}
	engines := cfg.Engines
	if len(engines) == 0 {
		engines = AllEngineNames()
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
	n := g.NumVertices()

	report := &ScalingReport{
		Graph:    cfg.Gen,
		N:        cfg.N,
		Seed:     cfg.Seed,
		Weights:  cfg.Weights,
		Vertices: n,
		Edges:    g.NumEdges(),
		Rho:      cfg.Rho,
		Trials:   cfg.Trials,
		Procs:    cfg.Procs,
	}
	for _, name := range engines {
		report.Rows = append(report.Rows, ScalingRow{Engine: name})
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		// Fresh workspace pool per setting (see the function comment):
		// buffers sized under the previous GOMAXPROCS must not leak into
		// this setting's steady state.
		solver.ResetWorkspaces()
		for ri, name := range engines {
			eng, err := rs.ParseEngine(name)
			if err != nil {
				return nil, err
			}
			// Warm the workspace pool (and, at higher procs, the worker
			// pool) outside the timed loop.
			if _, _, err = solver.DistancesWith(0, eng); err != nil {
				return nil, fmt.Errorf("engine %s at procs=%d: %v", name, procs, err)
			}
			durs := make([]float64, cfg.Trials)
			var last rs.Stats
			for i := 0; i < cfg.Trials; i++ {
				src := rs.Vertex((i * 7919) % n)
				t0 := time.Now()
				_, st, err := solver.DistancesWith(src, eng)
				if err != nil {
					return nil, fmt.Errorf("engine %s at procs=%d: %v", name, procs, err)
				}
				durs[i] = float64(time.Since(t0).Microseconds())
				last = st
			}
			sort.Float64s(durs)
			p50 := durs[len(durs)/2]
			cell := ScalingCell{
				Procs: procs, P50Micros: p50,
				Steps: last.Steps, QuotaAdjustments: last.QuotaAdjustments,
			}
			row := &report.Rows[ri]
			if len(row.Cells) > 0 && p50 > 0 {
				cell.Speedup = row.Cells[0].P50Micros / p50
			} else if p50 > 0 {
				cell.Speedup = 1
			}
			row.Cells = append(row.Cells, cell)
		}
	}
	return report, nil
}

// RunScaling measures and writes the report as JSON.
func RunScaling(w io.Writer, cfg ScalingConfig) (*ScalingReport, error) {
	report, err := MeasureScaling(cfg)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return nil, err
	}
	return report, nil
}

// FormatScalingTable renders the report as an aligned text table: one
// row per engine, a p50 and speedup column per procs value. Engines
// whose solves adapted their ρ quota get a trailing step-accounting
// annotation so the adaptive rule's effect is visible in the sweep.
func FormatScalingTable(r *ScalingReport) string {
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

// ScalingBaseline is the committable envelope for scaling sweeps (the
// BENCH_<n>.json shape for multicore baselines, distinguished from the
// engine-matrix shape by Kind == "scaling"). HostProcs records
// runtime.NumCPU() on the measuring host: speedup columns measured where
// HostProcs < procs are oversubscription artifacts, not parallel
// speedup, and the compare gate skips them with a warning instead of
// failing on hardware the baseline never claimed to represent.
type ScalingBaseline struct {
	Kind      string          `json:"kind"`
	HostProcs int             `json:"hostProcs"`
	Workloads []ScalingReport `json:"workloads"`
}

// MeasureScalingSet runs every config and wraps the reports in the
// committable baseline envelope.
func MeasureScalingSet(cfgs []ScalingConfig, progress io.Writer) (*ScalingBaseline, error) {
	b := &ScalingBaseline{Kind: "scaling", HostProcs: runtime.NumCPU()}
	for _, cfg := range cfgs {
		if progress != nil {
			fmt.Fprintf(progress, "# measuring %s n=%d procs=%v trials=%d\n", cfg.Gen, cfg.N, cfg.Procs, cfg.Trials)
		}
		r, err := MeasureScaling(cfg)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			fmt.Fprint(progress, FormatScalingTable(r))
		}
		b.Workloads = append(b.Workloads, *r)
	}
	return b, nil
}

// DefaultScalingConfigs is the committed-baseline workload set: the two
// 50k workloads of the matrix trajectory (continuity with BENCH_4/5)
// plus rmat and grid2d sized past a million vertices, where parallelism
// has enough work to pay. The big workloads time four engines (delta is
// covered at 50k; the speedup gate reads parallel/flat/rho) with fewer
// trials to bound wall time — preprocessing is Θ(nρ²) and dominates the
// run as it is. rmat deduplicates edges, so its N overshoots to land
// >= 1M distinct vertices.
func DefaultScalingConfigs() []ScalingConfig {
	procs := []int{1, 2, 4, 8}
	big := []string{"sequential", "parallel", "flat", "rho"}
	return []ScalingConfig{
		{Gen: "rmat", N: 50000, Weights: 10000, Rho: 32, Seed: 42, Trials: 9, Procs: procs},
		{Gen: "grid2d", N: 50000, Weights: 10000, Rho: 32, Seed: 42, Trials: 9, Procs: procs},
		{Gen: "rmat", N: 2100000, Weights: 10000, Rho: 32, Seed: 42, Trials: 3, Procs: procs, Engines: big},
		{Gen: "grid2d", N: 1000000, Weights: 10000, Rho: 32, Seed: 42, Trials: 3, Procs: procs, Engines: big},
	}
}

// ReadScalingBaseline parses a scaling baseline file; ok is false when
// the file is not the scaling shape (e.g. an engine-matrix baseline), so
// callers can dispatch on the committed file's kind.
func ReadScalingBaseline(path string) (*ScalingBaseline, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	var b ScalingBaseline
	if err := json.Unmarshal(data, &b); err != nil || b.Kind != "scaling" {
		return nil, false, nil
	}
	return &b, true, nil
}

// Scaling-gate thresholds: the acceptance bar the committed baseline and
// every re-run must clear on capable hardware.
const (
	// scalingMinSpeedup is the required p50 speedup for the parallel-
	// substrate engines at scalingGateProcs on big workloads.
	scalingMinSpeedup = 1.8
	// scalingGateProcs is the procs column the speedup gate reads.
	scalingGateProcs = 4
	// scalingGateMinVerts qualifies a workload for the speedup gate:
	// below this, per-solve overheads legitimately dominate.
	scalingGateMinVerts = 1000000
	// scalingMaxP1Regress caps the tolerated procs=1 p50 regression vs
	// the baseline (0.10 = 10%): multicore wins must not be bought by
	// slowing the single-core path.
	scalingMaxP1Regress = 0.10
)

// scalingGateEngines are the engines the speedup gate applies to — the
// ones routed through the parallel relax kernels and the ordered-
// frontier substrate.
func scalingGateEngines() map[string]bool {
	return map[string]bool{"parallel": true, "flat": true, "rho": true}
}

// CompareScaling re-runs every workload recorded in a scaling baseline
// and gates two ways: (1) on hosts with at least scalingGateProcs CPUs,
// parallel/flat/rho must reach scalingMinSpeedup at that procs column on
// workloads of scalingGateMinVerts+ vertices; (2) every engine's fresh
// procs=1 p50 must stay within scalingMaxP1Regress of the baseline's.
// Hosts with fewer CPUs skip gate (1) with a warning — a 1-core machine
// cannot measure parallel speedup, only fake it — while gate (2) always
// applies. minSpeedup <= 0 selects the default.
func CompareScaling(w io.Writer, path string, minSpeedup float64) error {
	base, ok, err := ReadScalingBaseline(path)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: %s is not a scaling baseline", path)
	}
	if minSpeedup <= 0 {
		minSpeedup = scalingMinSpeedup
	}
	gateable := runtime.NumCPU() >= scalingGateProcs
	if !gateable {
		fmt.Fprintf(w, "# warning: host has %d CPU(s) < %d; speedup gate skipped (baseline recorded hostProcs=%d)\n",
			runtime.NumCPU(), scalingGateProcs, base.HostProcs)
	}
	var failures []string
	for _, bw := range base.Workloads {
		var engines []string
		for _, row := range bw.Rows {
			engines = append(engines, row.Engine)
		}
		cur, err := MeasureScaling(ScalingConfig{
			Gen: bw.Graph, N: bw.N, Weights: bw.Weights, Rho: bw.Rho,
			Seed: bw.Seed, Trials: bw.Trials, Engines: engines, Procs: bw.Procs,
		})
		if err != nil {
			return fmt.Errorf("bench: re-running %s scaling workload: %v", bw.Graph, err)
		}
		fmt.Fprint(w, FormatScalingTable(cur))
		for ri, bRow := range bw.Rows {
			cRow := cur.Rows[ri]
			// Gate 2: single-core latency must not regress.
			bP1, cP1 := cellAtProcs(bRow.Cells, 1), cellAtProcs(cRow.Cells, 1)
			if bP1 != nil && cP1 != nil && bP1.P50Micros > 0 &&
				cP1.P50Micros > (1+scalingMaxP1Regress)*bP1.P50Micros {
				failures = append(failures, fmt.Sprintf("%s/%s procs=1 p50 %.0fµs -> %.0fµs (>%.0f%% regression)",
					bw.Graph, bRow.Engine, bP1.P50Micros, cP1.P50Micros, scalingMaxP1Regress*100))
			}
			// Gate 1: parallel speedup on big workloads, capable hosts only.
			if gateable && bw.Vertices >= scalingGateMinVerts && scalingGateEngines()[bRow.Engine] {
				if c := cellAtProcs(cRow.Cells, scalingGateProcs); c != nil && c.Speedup < minSpeedup {
					failures = append(failures, fmt.Sprintf("%s/%s speedup %.2fx at %d procs < %.1fx",
						bw.Graph, bRow.Engine, c.Speedup, scalingGateProcs, minSpeedup))
				}
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %d scaling-gate failure(s): %v", len(failures), failures)
	}
	return nil
}

// cellAtProcs returns the cell measured at the given procs value, nil
// when the sweep has no such column.
func cellAtProcs(cells []ScalingCell, procs int) *ScalingCell {
	for i := range cells {
		if cells[i].Procs == procs {
			return &cells[i]
		}
	}
	return nil
}

// GateScalingReport is the cheap CI monotonicity gate over one fresh
// sweep: every engine's p50 at the sweep's last procs value must reach
// minSpeedup times its p50 at the first (so -min-speedup 1.0 asserts
// "more cores is at least not slower"). Skipped with a warning when the
// host has fewer CPUs than the last procs value — oversubscribed
// timings say nothing about scaling.
func GateScalingReport(w io.Writer, r *ScalingReport, minSpeedup float64) error {
	if len(r.Procs) < 2 {
		return fmt.Errorf("bench: speedup gate needs at least two procs values")
	}
	last := r.Procs[len(r.Procs)-1]
	if runtime.NumCPU() < last {
		fmt.Fprintf(w, "# warning: host has %d CPU(s) < %d; speedup gate skipped\n", runtime.NumCPU(), last)
		return nil
	}
	var failures []string
	for _, row := range r.Rows {
		if c := cellAtProcs(row.Cells, last); c != nil && c.Speedup < minSpeedup {
			failures = append(failures, fmt.Sprintf("%s %.2fx at %d procs < %.2fx",
				row.Engine, c.Speedup, last, minSpeedup))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: %d speedup-gate failure(s): %v", len(failures), failures)
	}
	return nil
}

// MeasureEngineTimelines runs one traced solve per engine on the
// workload and returns the timelines, keyed in engine order — the
// radius-bench -trace mode. Timelines go to their own file, never into
// the BENCH_* baselines: traced solves pay clock-read overhead and
// would skew latency trajectories.
func MeasureEngineTimelines(cfg EngineMatrixConfig) ([]rs.Timeline, error) {
	if cfg.Rho == 0 {
		cfg.Rho = 32
	}
	engines := cfg.Engines
	if len(engines) == 0 {
		engines = AllEngineNames()
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
	timelines := make([]rs.Timeline, 0, len(engines))
	for _, name := range engines {
		eng, err := rs.ParseEngine(name)
		if err != nil {
			return nil, err
		}
		_, _, tl, err := solver.DistancesTraced(0, eng)
		if err != nil {
			return nil, fmt.Errorf("engine %s: %v", name, err)
		}
		timelines = append(timelines, *tl)
	}
	return timelines, nil
}
