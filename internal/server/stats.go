package server

import "radiusstep/internal/metrics"

// StatsSnapshot is the JSON body served by GET /v1/stats. The solve and
// cache counters are the observable contract the tests rely on: N
// concurrent identical queries must show solves == 1, and a repeated
// source must raise hits without raising solves. Every number here is
// read from the same metrics registry GET /metrics exposes — the two
// endpoints are views over one set of counters.
type StatsSnapshot struct {
	Requests    map[string]int64 `json:"requests"`
	Solves      int64            `json:"solves"`
	RouteSolves int64            `json:"routeSolves"`
	// RouteCacheHits counts route queries answered from a cached full
	// distance vector without any solve.
	RouteCacheHits int64 `json:"routeCacheHits"`
	// RoutePruned totals relaxation candidates skipped by goal-directed
	// landmark pruning across route solves.
	RoutePruned int64 `json:"routePruned"`
	Coalesced   int64 `json:"coalesced"`
	Errors      int64 `json:"errors"`
	// SolveTimeouts counts solve-backed requests that hit their deadline
	// (504 class); SolvesCanceled counts client-departure aborts (499);
	// SolvePanics counts engine panics contained into 500s; Shed counts
	// requests rejected by the bounded admission queue (503).
	SolveTimeouts  int64            `json:"solveTimeouts"`
	SolvesCanceled int64            `json:"solvesCanceled"`
	SolvePanics    int64            `json:"solvePanics"`
	Shed           int64            `json:"shed"`
	Cache          CacheStats       `json:"cache"`
	Pool           PoolStats        `json:"pool"`
	Flight         FlightStats      `json:"flight"`
	SolvesByGraph  map[string]int64 `json:"solvesByGraph"`
	// SolvesByEngine counts full SSSP solves per engine name
	// (sequential, parallel, flat, delta, rho). A graph's solves run on
	// the engine its spec names, or on the one auto picks.
	SolvesByEngine map[string]int64 `json:"solvesByEngine"`
	// Lifecycle totals the registry's load and reload events and counts
	// the quarantined graphs; the per-graph detail (state, epoch,
	// quarantine error) lives on /v1/graphs under "health".
	Lifecycle LifecycleCounters `json:"lifecycle"`
}

// statsSnapshot assembles the full stats body — request and solve
// counters plus cache, pool, flight, per-graph solve, and lifecycle
// sections — for /v1/stats and the selftest report alike.
func (s *Server) statsSnapshot() StatsSnapshot {
	m := s.metrics
	snap := StatsSnapshot{
		Requests:       make(map[string]int64, len(endpointNames)),
		Solves:         m.solves.Value(),
		RouteSolves:    m.routeSolves.Value(),
		RouteCacheHits: m.routeCacheHits.Value(),
		RoutePruned:    m.routePruned.Value(),
		Coalesced:      m.coalesced.Value(),
		Errors:         m.errorsTotal(),
		SolveTimeouts:  m.solveTimeouts.Value(),
		SolvesCanceled: m.solvesCanceled.Value(),
		SolvePanics:    m.solvePanics.Value(),
		Shed:           s.pool.Stats().Shed,
		Lifecycle:      s.registry.Counters(),
	}
	for short, ep := range endpointNames {
		snap.Requests[short] = m.requests.With(ep).Value()
	}
	snap.Cache = s.cache.Stats()
	snap.Pool = s.pool.Stats()
	snap.Flight = s.flight.Stats()
	snap.SolvesByGraph = make(map[string]int64)
	m.graphCells.Range(func(k, v any) bool {
		snap.SolvesByGraph[k.(string)] = v.(*metrics.Counter).Value()
		return true
	})
	snap.SolvesByEngine = make(map[string]int64)
	m.engineCells.Range(func(k, v any) bool {
		snap.SolvesByEngine[k.(string)] = v.(*metrics.Counter).Value()
		return true
	})
	return snap
}
