package server

import (
	"math"
	"net/http"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"

	"radiusstep/internal/metrics"
	"radiusstep/internal/parallel"

	rs "radiusstep"
)

// endpointNames maps the short request-counter keys of /v1/stats to the
// endpoint label values used on /metrics. One fixed table keeps the two
// views enumerable from the same registry children.
var endpointNames = map[string]string{
	"distances": "/v1/distances",
	"route":     "/v1/route",
	"graphs":    "/v1/graphs",
	"stats":     "/v1/stats",
	"healthz":   "/healthz",
	"readyz":    "/readyz",
	"metrics":   "/metrics",

	"adminReload": "/v1/admin/reload",
	"adminLoad":   "/v1/admin/load",
	"adminRemove": "/v1/admin/remove",
}

// statusClasses are the error-class label values (satellite of the
// errors-by-endpoint split: client vs server failures count apart).
var statusClasses = []string{"4xx", "5xx"}

// serverMetrics is the server's single metrics registry: every counter
// the handlers maintain lives here, and both GET /metrics (Prometheus
// text) and GET /v1/stats (JSON snapshot) read it. Hot-path handles
// (per-endpoint counters, per-engine histograms) are captured once at
// construction or memoized in sync.Maps, so request handling never
// takes the family mutex.
type serverMetrics struct {
	reg *metrics.Registry

	requests   *metrics.CounterVec   // endpoint
	reqDur     *metrics.HistogramVec // endpoint
	httpErrors *metrics.CounterVec   // endpoint, class

	solves         *metrics.Counter
	solveDur       *metrics.HistogramVec // engine
	routeSolveDur  *metrics.HistogramVec // engine
	engineSolves   *metrics.CounterVec   // engine
	graphSolves    *metrics.CounterVec   // graph
	routeSolves    *metrics.Counter
	routeCacheHits *metrics.Counter
	routePruned    *metrics.Counter
	coalesced      *metrics.Counter
	solveTimeouts  *metrics.Counter
	solvesCanceled *metrics.Counter
	solvePanics    *metrics.Counter
	solveBarrier   *metrics.Histogram // per-solve join-barrier nanos
	poolWake       *metrics.Histogram // per-solve worker-wake nanos

	// Memoized children for hot paths and for snapshot enumeration
	// (CounterVec does not expose its label sets).
	engineCells sync.Map // engine name -> *metrics.Counter
	graphCells  sync.Map // graph name -> *metrics.Counter

	rt runtimeStats
}

// newServerMetrics builds the registry over the server's cache, pool and
// flight group (whose own counters are exported as scrape-time funcs —
// one source of truth, no mirroring).
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{reg: r}

	// Latency buckets: 100µs .. ~27s, log-spaced. Solves on small graphs
	// sit at the bottom, cold large-graph solves at the top.
	solveBuckets := metrics.ExpBuckets(1e-4, 2.5, 14)
	reqBuckets := metrics.ExpBuckets(1e-4, 2.5, 14)

	m.requests = r.NewCounterVec("sssp_http_requests_total",
		"HTTP requests received, by endpoint.", "endpoint")
	m.reqDur = r.NewHistogramVec("sssp_http_request_duration_seconds",
		"HTTP request latency, by endpoint.", []string{"endpoint"}, reqBuckets)
	m.httpErrors = r.NewCounterVec("sssp_http_errors_total",
		"HTTP error responses, by endpoint and status class.", "endpoint", "class")

	m.solves = r.NewCounter("sssp_solves_total",
		"Full SSSP solves executed by a backend (cache hits excluded).")
	m.solveDur = r.NewHistogramVec("sssp_solve_duration_seconds",
		"Full SSSP solve latency, by engine.", []string{"engine"}, solveBuckets)
	m.engineSolves = r.NewCounterVec("sssp_engine_solves_total",
		"Full SSSP solves, by stepping engine.", "engine")
	m.graphSolves = r.NewCounterVec("sssp_graph_solves_total",
		"Full SSSP solves, by graph name.", "graph")
	m.routeSolves = r.NewCounter("sssp_route_solves_total",
		"Early-terminated point-to-point route solves.")
	m.routeSolveDur = r.NewHistogramVec("sssp_route_solve_duration_seconds",
		"Route solve latency, by engine (cache-answered and landmark-certified unreachable routes excluded).", []string{"engine"}, solveBuckets)
	m.routeCacheHits = r.NewCounter("sssp_route_cache_hits_total",
		"Route queries answered from a cached distance vector (no solve).")
	m.routePruned = r.NewCounter("sssp_route_pruned_relaxations_total",
		"Relaxation candidates skipped by goal-directed landmark pruning.")
	r.NewGaugeFunc("sssp_landmarks", "ALT landmark vectors serving route pruning, across graphs.",
		func() float64 {
			var total int
			for _, e := range s.registry.List() {
				total += e.Solver.Landmarks()
			}
			return float64(total)
		})
	m.coalesced = r.NewCounter("sssp_coalesced_requests_total",
		"Queries that piggybacked on an in-flight identical solve.")

	// Request-lifecycle counters: deadline expiries (504s), client
	// departures (499s), contained engine panics, and shed requests.
	// Plain counters (not funcs) so they appear in the exposition at 0 —
	// alerting rules and the CI promcheck -require gate depend on the
	// families existing before the first incident.
	m.solveTimeouts = r.NewCounter("sssp_solve_timeouts_total",
		"Solve-backed requests that hit their deadline (504 class).")
	m.solvesCanceled = r.NewCounter("sssp_solves_canceled_total",
		"Solve-backed requests aborted by client departure (499 class).")
	m.solvePanics = r.NewCounter("sssp_solve_panics_total",
		"Engine panics contained by the serving layer (500 instead of a dead daemon).")
	r.NewCounterFunc("sssp_requests_shed_total",
		"Requests rejected because the solve wait queue was full (503 + Retry-After).",
		func() float64 { return float64(s.pool.Stats().Shed) })
	r.NewGaugeFunc("sssp_pool_queue_depth",
		"Requests currently waiting for a solve slot (the bounded admission queue).",
		func() float64 { return float64(s.pool.Stats().Waiting) })

	// Graph-lifecycle families, sampled from the registry's counters at
	// scrape time. A load failure here means a graph is quarantined (still
	// serving its previous epoch) or failed (never served) — the
	// sssp_graphs_quarantined gauge says whether the condition persists.
	r.NewCounterFunc("sssp_graph_load_failures_total",
		"Graph load/reload attempts rejected by validation (torn snapshot, bad checksum, build error).",
		func() float64 { return float64(s.registry.Counters().LoadFailures) })
	r.NewCounterFunc("sssp_graph_reloads_total",
		"Successful hot reloads: a new graph epoch atomically replaced a serving one.",
		func() float64 { return float64(s.registry.Counters().Reloads) })
	r.NewGaugeFunc("sssp_graphs_quarantined",
		"Graphs whose most recent load attempt failed (serving a stale epoch or nothing).",
		func() float64 { return float64(s.registry.Counters().Quarantined) })
	r.NewGaugeFunc("sssp_graphs_serving",
		"Graphs with a live epoch answering queries right now.",
		func() float64 { return float64(len(s.registry.List())) })

	// Per-solve fork-join contention, sampled as worker-pool counter
	// deltas around each solve (the same counters -trace reads,
	// so contention is visible in production without tracing overhead).
	// The pool counters are process-global: under concurrent solves a
	// delta also absorbs the overlapping solves' events, so these read
	// as load-level contention, exact per-solve attribution only when
	// solves don't overlap. Buckets: 1µs .. ~4s, log-spaced.
	poolBuckets := metrics.ExpBuckets(1e3, 4, 12)
	m.solveBarrier = r.NewHistogram("sssp_solve_barrier_nanos",
		"Join-barrier wait nanoseconds accumulated by fork callers during one solve.", poolBuckets)
	m.poolWake = r.NewHistogram("sssp_pool_wake_nanos",
		"Worker wake (dispatch-to-execution) nanoseconds accumulated during one solve.", poolBuckets)

	// Cache, pool and flight counters live in their own structs (the
	// /v1/stats sections); /metrics samples them at scrape.
	r.NewCounterFunc("sssp_cache_hits_total", "Distance-cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.NewCounterFunc("sssp_cache_misses_total", "Distance-cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.NewCounterFunc("sssp_cache_evictions_total", "Distance-cache evictions.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	r.NewGaugeFunc("sssp_cache_entries", "Distance-cache resident entries.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.NewGaugeFunc("sssp_cache_bytes", "Distance-cache resident bytes: vectors and their encoded bodies.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	r.NewGaugeFunc("sssp_cache_body_bytes", "Distance-cache resident bytes of encoded full-vector bodies.",
		func() float64 { return float64(s.cache.Stats().BodyBytes) })
	r.NewGaugeFunc("sssp_pool_workers", "Solve-pool slot count.",
		func() float64 { return float64(s.pool.Stats().Workers) })
	r.NewGaugeFunc("sssp_pool_in_use", "Solve-pool slots currently held.",
		func() float64 { return float64(s.pool.Stats().InUse) })
	r.NewGaugeFunc("sssp_pool_waiting", "Requests waiting for a solve slot.",
		func() float64 { return float64(s.pool.Stats().Waiting) })
	r.NewGaugeFunc("sssp_flight_waiting", "Requests joined to an in-flight solve.",
		func() float64 { return float64(s.flight.Stats().Waiting) })

	// Go runtime health, sampled from runtime/metrics once per scrape
	// (handleMetrics calls rt.sample before writing).
	r.NewGaugeFunc("sssp_go_goroutines", "Goroutine count.",
		func() float64 { return m.rt.get().goroutines })
	r.NewGaugeFunc("sssp_go_heap_objects_bytes", "Live heap object bytes.",
		func() float64 { return m.rt.get().heapBytes })
	r.NewGaugeFunc("sssp_go_gc_pause_p50_seconds", "Median stop-the-world GC pause.",
		func() float64 { return m.rt.get().gcP50 })
	r.NewGaugeFunc("sssp_go_gc_pause_p99_seconds", "99th-percentile stop-the-world GC pause.",
		func() float64 { return m.rt.get().gcP99 })
	r.NewGaugeFunc("sssp_go_sched_latency_p50_seconds", "Median goroutine scheduling latency.",
		func() float64 { return m.rt.get().schedP50 })
	r.NewGaugeFunc("sssp_go_sched_latency_p99_seconds", "99th-percentile goroutine scheduling latency.",
		func() float64 { return m.rt.get().schedP99 })

	return m
}

// engineCounter memoizes the per-engine solve counter; the sync.Map is
// also the enumeration source for the /v1/stats solvesByEngine map.
func (m *serverMetrics) engineCounter(engine string) *metrics.Counter {
	if c, ok := m.engineCells.Load(engine); ok {
		return c.(*metrics.Counter)
	}
	c := m.engineSolves.With(engine)
	m.engineCells.Store(engine, c)
	return c
}

func (m *serverMetrics) graphCounter(graph string) *metrics.Counter {
	if c, ok := m.graphCells.Load(graph); ok {
		return c.(*metrics.Counter)
	}
	c := m.graphSolves.With(graph)
	m.graphCells.Store(graph, c)
	return c
}

// observeSolve folds one full solve into the registry: totals, the
// per-engine latency histogram, and per-engine and per-graph counters.
func (m *serverMetrics) observeSolve(graph string, st rs.Stats, dur time.Duration) {
	m.solves.Inc()
	m.graphCounter(graph).Inc()
	if st.Engine != "" {
		m.engineCounter(st.Engine).Inc()
		m.solveDur.With(st.Engine).Observe(dur.Seconds())
	}
}

// poolBefore snapshots the worker pool's cumulative counters ahead of a
// solve; pass the result to observePool afterwards.
func (m *serverMetrics) poolBefore() parallel.PoolCounters {
	return parallel.ReadPoolCounters()
}

// observePool folds the solve's pool-counter delta into the barrier and
// wake histograms (see their registration comment for the concurrency
// caveat). Solves that never forked (sequential engine, GOMAXPROCS=1,
// or every substep below the relax dispatch gate) still observe zeros,
// keeping _count equal to the solve count so rates stay comparable.
func (m *serverMetrics) observePool(before parallel.PoolCounters) {
	after := parallel.ReadPoolCounters()
	m.solveBarrier.Observe(float64(after.BarrierNanos - before.BarrierNanos))
	m.poolWake.Observe(float64(after.WakeNanos - before.WakeNanos))
}

// errorsTotal sums the labeled error counters back into the single
// number /v1/stats has always reported.
func (m *serverMetrics) errorsTotal() int64 {
	var total int64
	for _, ep := range endpointNames {
		for _, class := range statusClasses {
			total += m.httpErrors.With(ep, class).Value()
		}
	}
	return total
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.metrics.rt.sample()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}

// --- runtime/metrics sampling ---------------------------------------------

// runtimeValues is one sample of the Go runtime health metrics exported
// on /metrics.
type runtimeValues struct {
	goroutines float64
	heapBytes  float64
	gcP50      float64
	gcP99      float64
	schedP50   float64
	schedP99   float64
}

// runtimeStats samples runtime/metrics once per scrape: handleMetrics
// calls sample() before writing, and each gauge func reads the shared
// snapshot instead of re-reading the runtime six times.
type runtimeStats struct {
	mu   sync.Mutex
	last runtimeValues
}

func (r *runtimeStats) get() runtimeValues {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

func (r *runtimeStats) sample() {
	samples := []runtimemetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	runtimemetrics.Read(samples)
	var v runtimeValues
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		v.goroutines = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		v.heapBytes = float64(samples[1].Value.Uint64())
	}
	if samples[2].Value.Kind() == runtimemetrics.KindFloat64Histogram {
		h := samples[2].Value.Float64Histogram()
		v.gcP50, v.gcP99 = histQuantile(h, 0.50), histQuantile(h, 0.99)
	}
	if samples[3].Value.Kind() == runtimemetrics.KindFloat64Histogram {
		h := samples[3].Value.Float64Histogram()
		v.schedP50, v.schedP99 = histQuantile(h, 0.50), histQuantile(h, 0.99)
	}
	r.mu.Lock()
	r.last = v
	r.mu.Unlock()
}

// histQuantile reads quantile q out of a runtime/metrics histogram,
// reporting the upper edge of the bucket the quantile falls in (the
// conservative answer for latency alerts).
func histQuantile(h *runtimemetrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= target {
			// Counts[i] spans Buckets[i]..Buckets[i+1]; an infinite upper
			// edge falls back to the finite lower edge.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
