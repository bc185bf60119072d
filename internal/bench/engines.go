package bench

// This file implements the engine matrix mode: per-engine solve latency
// and allocation profiles over one graph, emitted as JSON. It seeds the
// BENCH_* trajectory — a machine-readable record of how each stepping
// strategy performs on a workload, comparable across commits.

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

// EngineMatrixConfig describes one matrix run.
type EngineMatrixConfig struct {
	Gen     string // generator family (grid2d, road, web, ...)
	N       int    // approximate vertex count
	Weights int    // uniform integer weights in [1, Weights]; 0 keeps generator weights
	Rho     int    // preprocessing ball size (and the ρ-stepping quota)
	Seed    uint64
	Trials  int      // timed solves per engine
	Engines []string // engine names; empty means all five
}

// EngineBenchRow is one engine's measurement. The frontier* fields are
// the ordered-frontier substrate's per-solve operation counters,
// nonzero only for the engines built on it (parallel, rho) — the same
// counters /v1/stats aggregates, so bench rows and serving telemetry
// triangulate.
type EngineBenchRow struct {
	Engine            string  `json:"engine"`
	P50Micros         float64 `json:"p50Micros"`
	P90Micros         float64 `json:"p90Micros"`
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

// EngineMatrixReport is the JSON envelope emitted by RunEngineMatrix.
// It carries the full run configuration (generator, size, seed, weights)
// so a committed baseline file can be re-run and compared on the same
// workload by CompareEngineMatrix.
type EngineMatrixReport struct {
	Graph    string           `json:"graph"`
	N        int              `json:"n"`
	Seed     uint64           `json:"seed"`
	Weights  int              `json:"weights"`
	Vertices int              `json:"vertices"`
	Edges    int              `json:"edges"`
	Rho      int              `json:"rho"`
	Trials   int              `json:"trials"`
	Procs    int              `json:"procs"`
	Rows     []EngineBenchRow `json:"rows"`
}

// AllEngineNames lists the five engines in framework order.
func AllEngineNames() []string {
	return []string{"sequential", "parallel", "flat", "delta", "rho"}
}

// RunEngineMatrix builds one preprocessed solver and times every
// requested engine on it via the per-query override path — the exact
// code path the daemon's ?engine= parameter takes — reporting p50/p90
// solve latency and per-solve allocation counts as JSON.
func RunEngineMatrix(w io.Writer, cfg EngineMatrixConfig) error {
	report, err := MeasureEngineMatrix(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// MeasureEngineMatrix runs the matrix and returns the report instead of
// encoding it; RunEngineMatrix and CompareEngineMatrix share it.
func MeasureEngineMatrix(cfg EngineMatrixConfig) (*EngineMatrixReport, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 9
	}
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
	n := g.NumVertices()

	report := &EngineMatrixReport{
		Graph:    cfg.Gen,
		N:        cfg.N,
		Seed:     cfg.Seed,
		Weights:  cfg.Weights,
		Vertices: n,
		Edges:    g.NumEdges(),
		Rho:      cfg.Rho,
		Trials:   cfg.Trials,
		Procs:    runtime.GOMAXPROCS(0),
	}
	for _, name := range engines {
		eng, err := rs.ParseEngine(name)
		if err != nil {
			return nil, err
		}
		// Warm the workspace pool so the timed loop measures steady
		// state, not first-solve buffer growth.
		var lastStats rs.Stats
		if _, lastStats, err = solver.DistancesWith(0, eng); err != nil {
			return nil, fmt.Errorf("engine %s: %v", name, err)
		}

		durs := make([]float64, cfg.Trials)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < cfg.Trials; i++ {
			src := rs.Vertex((i * 7919) % n)
			t0 := time.Now()
			_, st, err := solver.DistancesWith(src, eng)
			durs[i] = float64(time.Since(t0).Microseconds())
			if err != nil {
				return nil, fmt.Errorf("engine %s: %v", name, err)
			}
			lastStats = st
		}
		runtime.ReadMemStats(&after)
		sort.Float64s(durs)

		report.Rows = append(report.Rows, EngineBenchRow{
			Engine:            name,
			P50Micros:         durs[len(durs)/2],
			P90Micros:         durs[len(durs)*9/10],
			AllocsPerSolve:    float64(after.Mallocs-before.Mallocs) / float64(cfg.Trials),
			BytesPerSolve:     float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Trials),
			Steps:             lastStats.Steps,
			Substeps:          lastStats.Substeps,
			QuotaAdjustments:  lastStats.QuotaAdjustments,
			Relaxations:       lastStats.Relaxations,
			FrontierPushes:    lastStats.Frontier.Pushes,
			FrontierBatches:   lastStats.Frontier.Batches,
			FrontierMerges:    lastStats.Frontier.Merges,
			FrontierExtracted: lastStats.Frontier.Extracted,
			FrontierStale:     lastStats.Frontier.Stale,
			FrontierSelects:   lastStats.Frontier.Selects,
		})
	}
	return report, nil
}

// ReadBaseline parses a baseline file written by radius-bench: either a
// single EngineMatrixReport object or a JSON array of them (one report
// per workload, the BENCH_* convention).
func ReadBaseline(path string) ([]EngineMatrixReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []EngineMatrixReport
	if err := json.Unmarshal(data, &many); err == nil {
		return many, nil
	}
	var one EngineMatrixReport
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("bench: baseline %s is neither a report nor a report array: %v", path, err)
	}
	return []EngineMatrixReport{one}, nil
}

// allocNoiseFloor is the absolute allocs-per-solve increase below which
// the allocation gate stays quiet: an engine drifting from 1.4 to 4
// allocs trips a naive 2x ratio but is runtime noise, not a leak.
const allocNoiseFloor = 256

// allocRegressed is the allocation-gate predicate: cur regressed against
// base when it grew by more than factor times (factor <= 0 disables the
// gate) AND the absolute increase clears the noise floor.
func allocRegressed(base, cur, factor float64) bool {
	return factor > 0 && cur > factor*base && cur-base > allocNoiseFloor
}

// LatestBaseline returns the highest-numbered BENCH_<n>.json in dir —
// the freshest committed baseline, so `radius-bench -compare latest`
// always gates against the newest trajectory point without hardcoding a
// file name.
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

// CompareEngineMatrix re-runs every workload recorded in the baseline
// file on the current build and compares per-engine p50 latency and
// allocation counts. It returns an error — the CI-gate signal — when any
// engine's p50 regressed by more than maxRegress (0.25 = 25%), or its
// allocs-per-solve grew by more than allocRegress times the baseline
// (2 = doubled; <= 0 disables the allocation gate) beyond an absolute
// noise floor. Improvements never fail the gate.
func CompareEngineMatrix(w io.Writer, path string, maxRegress, allocRegress float64) error {
	baselines, err := ReadBaseline(path)
	if err != nil {
		return err
	}
	if len(baselines) == 0 {
		return fmt.Errorf("bench: baseline %s holds no reports", path)
	}
	var regressions []string
	for _, base := range baselines {
		if base.Procs != runtime.GOMAXPROCS(0) {
			fmt.Fprintf(w, "# warning: baseline %s/%s recorded at GOMAXPROCS=%d, running at %d\n",
				path, base.Graph, base.Procs, runtime.GOMAXPROCS(0))
		}
		var engines []string
		for _, row := range base.Rows {
			engines = append(engines, row.Engine)
		}
		cur, err := MeasureEngineMatrix(EngineMatrixConfig{
			Gen: base.Graph, N: base.N, Weights: base.Weights, Rho: base.Rho,
			Seed: base.Seed, Trials: base.Trials, Engines: engines,
		})
		if err != nil {
			return fmt.Errorf("bench: re-running %s workload: %v", base.Graph, err)
		}
		fmt.Fprintf(w, "workload %s (n=%d, m=%d, rho=%d, trials=%d)\n",
			base.Graph, cur.Vertices, cur.Edges, base.Rho, base.Trials)
		fmt.Fprintf(w, "  %-12s %14s %14s %8s %12s %12s\n",
			"engine", "base p50 (µs)", "now p50 (µs)", "ratio", "base allocs", "now allocs")
		for i, bRow := range base.Rows {
			cRow := cur.Rows[i]
			ratio := cRow.P50Micros / bRow.P50Micros
			mark := ""
			if bRow.P50Micros > 0 && ratio > 1+maxRegress {
				mark = "  REGRESSED"
				regressions = append(regressions,
					fmt.Sprintf("%s/%s p50 %.0fµs -> %.0fµs (%.2fx)", base.Graph, bRow.Engine, bRow.P50Micros, cRow.P50Micros, ratio))
			}
			if allocRegressed(bRow.AllocsPerSolve, cRow.AllocsPerSolve, allocRegress) {
				mark += "  ALLOCS-REGRESSED"
				regressions = append(regressions,
					fmt.Sprintf("%s/%s allocs/solve %.0f -> %.0f (>%.1fx)",
						base.Graph, bRow.Engine, bRow.AllocsPerSolve, cRow.AllocsPerSolve, allocRegress))
			}
			fmt.Fprintf(w, "  %-12s %14.0f %14.0f %7.2fx %12.0f %12.0f%s\n",
				bRow.Engine, bRow.P50Micros, cRow.P50Micros, ratio,
				bRow.AllocsPerSolve, cRow.AllocsPerSolve, mark)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench: %d regression(s) beyond the gate (p50 >%.0f%%, allocs >%.1fx): %v",
			len(regressions), maxRegress*100, allocRegress, regressions)
	}
	return nil
}
