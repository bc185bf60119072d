// Package radiusstep is a from-scratch Go implementation of
// "Parallel Shortest-Paths Using Radius Stepping" (Blelloch, Gu, Sun,
// Tangwongsan — SPAA 2016), a parallel single-source shortest-path
// algorithm with the best known work/depth tradeoff at near-linear work:
// after an O(m log n + nρ²)-work preprocessing phase, each query takes
// O(m log n) work and O((n/ρ)·log n·log(ρL)) depth.
//
// The package exposes:
//
//   - Graph construction (NewBuilder, FromEdges, generators),
//   - Preprocess: shortcut construction turning any graph into a
//     (k, ρ)-graph plus the per-vertex radii r(v) = r_ρ(v),
//   - Solver: repeated SSSP queries over a preprocessed graph with a
//     choice of stepping engines (sequential reference, parallel
//     ordered-frontier engine, flat frontier engine, plus the
//     radius-free Δ-stepping and ρ-stepping strategies), selectable per solver
//     (Options.Engine) or per query (Query.Engine); Solver.Solve runs
//     every query — full or point-to-point, under a context, optionally
//     traced — and solves draw pooled workspaces, so steady-state
//     queries allocate only their results,
//   - Baselines: Dijkstra, Bellman–Ford, ∆-stepping, parallel BFS.
//
// Quick start:
//
//	g := radiusstep.Grid2D(1000, 1000)
//	s, err := radiusstep.NewSolver(g, radiusstep.Options{Rho: 64})
//	if err != nil { ... }
//	dist, stats, err := s.Distances(0)
//
// The cost model: choosing ρ trades preprocessing work (Θ(nρ²)) and up
// to nρ shortcut edges against query depth (steps shrink roughly as
// 1/ρ). §5.4 of the paper — and the EXPERIMENTS.md tables regenerated by
// this repository's benchmarks — suggest k=3..4 and ρ=50..100 as good
// defaults for graphs in the million-edge range. Options defaults to
// k = 4 with DP shortcuts and ρ = 32.
//
// Graphs come from generators, from real-workload files — the native
// text format, DIMACS ".gr" road networks and headerless edge lists,
// all auto-detected by ReadGraphAuto/LoadGraphFile — or from
// snapshots: versioned, checksummed binary files (Snapshot,
// WriteSnapshotFile, SolverFromSnapshot) that persist the CSR arrays
// together with the preprocessing outputs (radii, augmented and
// original graphs, and the ρ/k/heuristic they were derived with).
// cmd/graphpack builds snapshots offline so the preprocessing phase is
// paid once per graph rather than once per process start.
//
// For online serving, cmd/ssspd wraps this library in an HTTP/JSON
// daemon (internal/server): named preprocessed graphs in a registry, a
// bounded pool of concurrent solves, singleflight coalescing of
// duplicate (graph, source) queries, and a source-keyed LRU cache of
// distance vectors — the preprocess-once/query-many shape the paper's
// amortization argument (§5.4) is about, turned into a service. A
// snapshot-backed graph reaches serving state without re-running
// preprocessing (its /v1/graphs entry reports radiiSource "snapshot").
//
// ARCHITECTURE.md maps every package to the paper's sections.
package radiusstep
