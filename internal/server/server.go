// Package server implements ssspd's query-serving subsystem: a registry
// of named preprocessed graphs, a bounded pool of concurrent solves,
// singleflight coalescing of duplicate (graph, source) queries, and a
// source-keyed LRU cache of distance vectors — the layer that turns the
// radius-stepping library's preprocess-once/query-many shape into an
// online HTTP service.
//
// Endpoints (all JSON):
//
//	POST /v1/distances  one source; full vector, top-k nearest, or a target subset
//	POST /v1/route      point-to-point path via the early-terminating solver
//	GET  /v1/graphs     registry metadata (n, m, ρ, k, preprocessing stats)
//	GET  /v1/stats      cache/coalescing/pool counters
//	GET  /healthz       liveness
//
// Every query on a graph runs on the engine its spec names (engine=,
// default auto); /v1/stats reports solve counts per engine.
//
// Unreachable vertices are reported with distance -1 (JSON has no +Inf).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"radiusstep/internal/fault"

	rs "radiusstep"
)

// DefaultSolveTimeout bounds a solve-backed request when Config leaves
// SolveTimeout zero. Generous — a cold multi-million-vertex solve fits —
// but finite, so no request can hold a pool slot forever.
const DefaultSolveTimeout = 30 * time.Second

// Config tunes a Server.
type Config struct {
	// Workers bounds concurrent solves (default GOMAXPROCS).
	Workers int
	// CacheBytes is the distance-cache budget, covering the vectors and
	// their encoded bodies; <= 0 disables caching.
	CacheBytes int64
	// Logger, when non-nil, receives structured request logs (one line
	// per request with endpoint, status and latency) and per-solve logs
	// (engine, step counts, duration).
	Logger *slog.Logger
	// SolveTimeout is the per-request deadline for solve-backed
	// endpoints (default DefaultSolveTimeout; < 0 disables). Requests
	// may shorten it per call with ?timeout_ms=; they can never extend
	// past it.
	SolveTimeout time.Duration
	// QueueDepth caps how many requests may wait for a solve slot
	// before the server sheds load with 503 + Retry-After (<= 0 selects
	// 8 waiters per worker).
	QueueDepth int
	// AdminToken, when non-empty, mounts the /v1/admin/* lifecycle
	// endpoints (reload, load, remove) on the main handler, guarded by
	// this bearer token. Leave empty to keep admin off the query port —
	// the daemon can still serve AdminHandler on a separate private
	// listener (-admin-addr).
	AdminToken string
}

// Server serves shortest-path queries over a Registry. Create with New,
// mount via Handler.
type Server struct {
	registry     *Registry
	cache        *distCache
	flight       *flightGroup
	pool         *solvePool
	metrics      *serverMetrics
	logger       *slog.Logger
	solveTimeout time.Duration
	adminToken   string
	start        time.Time

	// Lifecycle: ready gates /readyz (New starts ready; the daemon
	// flips it around graph loading), draining marks shutdown, and
	// lifeCtx ends when Abort tears down stragglers.
	ready      atomic.Bool
	draining   atomic.Bool
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// New builds a server over reg.
func New(reg *Registry, cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	timeout := cfg.SolveTimeout
	if timeout == 0 {
		timeout = DefaultSolveTimeout
	}
	if timeout < 0 {
		timeout = 0 // disabled
	}
	s := &Server{
		registry:     reg,
		cache:        newDistCache(cfg.CacheBytes),
		flight:       newFlightGroup(),
		pool:         newSolvePool(workers, cfg.QueueDepth),
		logger:       cfg.Logger,
		solveTimeout: timeout,
		adminToken:   cfg.AdminToken,
		start:        time.Now(),
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	s.ready.Store(true)
	s.metrics = newServerMetrics(s)
	// Epoch-scoped cache invalidation: a swap or removal drops only
	// that graph's vectors (every epoch — the dead one is unreachable
	// anyway, this reclaims its memory).
	reg.OnSwap(s.cache.InvalidateGraph)
	return s
}

// SetReady flips the /readyz readiness gate; the daemon holds it false
// while graphs load so load balancers don't route to a cold process.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether the server is accepting work (ready and not
// draining).
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// BeginDrain marks the server draining: /readyz turns 503 immediately
// so load balancers stop sending traffic, while in-flight requests keep
// running. Call Drain afterwards to wait them out.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain waits for the solve pool to empty — the graceful half of
// shutdown. It returns nil once no solve is running or waiting, or
// ctx's error when the grace period expires first (the caller then
// escalates to Abort).
func (s *Server) Drain(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		st := s.pool.Stats()
		if st.InUse == 0 && st.Waiting == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Abort cancels every in-flight solve through the cooperative probe —
// the forceful half of shutdown, for stragglers that outlived the
// drain grace.
func (s *Server) Abort() {
	s.lifeCancel()
	s.flight.abortAll()
}

// Registry exposes the graph registry (for daemon startup logging).
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the route table as an http.Handler. Every route is
// wrapped in the instrumentation middleware (request counter, latency
// histogram, error-by-status-class counter, optional request log).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/graphs", s.instrument("/v1/graphs", s.handleGraphs))
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("POST /v1/distances", s.instrument("/v1/distances", s.handleDistances))
	mux.HandleFunc("POST /v1/route", s.instrument("/v1/route", s.handleRoute))
	if s.adminToken != "" {
		// Lifecycle mutation on the query port, opt-in and token-guarded;
		// without a token the admin surface exists only via AdminHandler
		// on a separate private listener.
		s.mountAdmin(mux, s.requireAdminToken)
	}
	return mux
}

// statusWriter captures the response status for the middleware; Write
// without an explicit WriteHeader means 200, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClass buckets an HTTP status into the error-class label ("4xx",
// "5xx", or "" for success).
func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	}
	return ""
}

// instrument wraps a handler with per-endpoint metrics: a request
// counter, a latency histogram, and error counters split by status
// class. The child handles are captured once here, so the per-request
// cost is three atomic ops and a clock read.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.metrics.requests.With(endpoint)
	dur := s.metrics.reqDur.With(endpoint)
	e4 := s.metrics.httpErrors.With(endpoint, "4xx")
	e5 := s.metrics.httpErrors.With(endpoint, "5xx")
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		elapsed := time.Since(t0)
		dur.Observe(elapsed.Seconds())
		switch statusClass(sw.status) {
		case "5xx":
			e5.Inc()
		case "4xx":
			e4.Inc()
		}
		if s.logger != nil {
			s.logger.Info("request",
				"endpoint", endpoint,
				"method", r.Method,
				"status", sw.status,
				"durMicros", elapsed.Microseconds())
		}
	}
}

// --- request lifecycle ----------------------------------------------------

// statusClientClosedRequest is the nginx-convention status for "the
// client went away before we could answer" — a solve aborted by its own
// caller's disconnect, distinct from a server-imposed 504 deadline.
const statusClientClosedRequest = 499

// requestCtx derives the context a solve-backed request runs under: the
// request's own context bounded by the server's solve timeout —
// shortened, never extended, by a ?timeout_ms= override — and canceled
// by server Abort (shutdown stragglers). The returned cancel must be
// called when the request finishes.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	timeout := s.solveTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("bad timeout_ms %q (want a positive integer)", raw)
		}
		// Clamp before converting: a larger ms would overflow to a
		// negative Duration, and a negative timeout sets no deadline.
		if d := time.Duration(min(ms, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	ctx := r.Context()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	stop := context.AfterFunc(s.lifeCtx, cancel)
	return ctx, func() { stop(); cancel() }, nil
}

// solveStatus maps a solve-path error onto its HTTP status: deadline
// expiry is the 504 class (the server's time budget ran out), client
// departure is 499 (nginx convention), a full queue is 503, anything
// else a plain 500.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, rs.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, rs.ErrCanceled) || errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, errQueueFull):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// recordSolveError folds a failed solve into the shed/timeout/cancel/
// panic counter families (the success path has its own counters).
func (s *Server) recordSolveError(err error) {
	switch {
	case errors.Is(err, rs.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		s.metrics.solveTimeouts.Inc()
	case errors.Is(err, rs.ErrCanceled) || errors.Is(err, context.Canceled):
		s.metrics.solvesCanceled.Inc()
	}
}

// failSolve writes a solve-path failure with its mapped status; shed
// requests carry Retry-After so well-behaved clients back off.
func (s *Server) failSolve(w http.ResponseWriter, err error, format string, args ...any) {
	status := solveStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.fail(w, status, format, args...)
}

// --- core query path ------------------------------------------------------

// distances answers one (graph, source) query through the cache →
// coalescing → pool pipeline. The returned vector is shared (cache and
// concurrent waiters) and must not be modified.
func (s *Server) distances(ctx context.Context, e *Entry, src rs.Vertex) (v vector, cached bool, err error) {
	// The key carries e.Epoch: the whole request already pinned one
	// epoch at resolve time, so cache hits, coalesced joins, and the
	// fill below are all scoped to that epoch — a reload mid-request
	// can neither serve this request a stale vector nor adopt this
	// request's vector into the new epoch's cache.
	key := cacheKey{graph: e.Name, epoch: e.Epoch, src: int32(src)}
	if v, ok := s.cache.Get(key); ok {
		return v, true, nil
	}
	// The solve runs under the flight call's own context: detached from
	// any single request's values and deadline — its result is shared
	// with every coalesced waiter and the cache, so one client
	// disconnecting must not poison the others' queries — but canceled
	// when the LAST interested participant departs, so an abandoned
	// solve stops burning its pool slot.
	d, joined, err := s.flight.Do(ctx, key, func(solveCtx context.Context) ([]float64, error) {
		// The cache check above and the flight join are not atomic: a
		// duplicate can miss the cache just before the previous leader
		// filled it and reach the flight just after that leader left.
		// Look again before solving; Peek counts nothing and keeps the
		// LRU order, since this request already counted its miss.
		if v, ok := s.cache.Peek(key); ok {
			return v.dist, nil
		}
		r, err := s.solveFull(solveCtx, e, src, false)
		if err != nil {
			return nil, err
		}
		s.fillCache(solveCtx, e, key, src, r.Dist)
		return r.Dist, nil
	})
	if joined {
		s.metrics.coalesced.Inc()
	}
	// The flight's solve context carries no deadline (waiters may have
	// different ones), so a solve aborted because THIS request's
	// deadline expired comes back as a cancellation; restore the real
	// cause for status mapping (504, not 499).
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			err = rs.ErrDeadline
		}
		return vector{}, false, err
	}
	// The leader's fill counted the vector's reached vertices; a vector
	// the cache did not keep is counted here.
	if v, ok := s.cache.Peek(key); ok {
		return v, false, nil
	}
	return vector{dist: d, reached: countReached(d)}, false, nil
}

// solveFull runs one full solve from src under a pool slot and the
// solve guard, maps the distance vector to client ids, and records the
// solve in the pool and solve metrics and the solve log. The flight
// leader in distances and the traced path in answerTraced both run
// their solves here; trace attaches the solve's Timeline.
func (s *Server) solveFull(ctx context.Context, e *Entry, src rs.Vertex, trace bool) (rs.Result, error) {
	if err := s.pool.acquire(ctx); err != nil {
		return rs.Result{}, err
	}
	defer s.pool.release()
	pc0 := s.metrics.poolBefore()
	t0 := time.Now()
	var r rs.Result
	err := s.guardSolve(ctx, e, src, func() (err error) {
		if r, err = e.Solver.Solve(ctx, rs.Query{Source: e.storedID(src), Trace: trace}); err == nil {
			r.Dist = e.clientDistances(r.Dist)
		}
		return err
	})
	if err != nil {
		return rs.Result{}, err
	}
	dur := time.Since(t0)
	s.metrics.observePool(pc0)
	s.metrics.observeSolve(e.Name, r.Stats, dur)
	s.logSolve(e.Name, src, r.Stats, dur)
	return r, nil
}

// guardSolve runs one solve behind the solve fault seam with panic
// containment: an engine panic becomes an error (and a counter
// increment) instead of a dead daemon, so the caller's deferred pool
// release and flight completion unwind normally and no slot or waiter
// is stuck. Every solve path — distances, traced distances, routes —
// goes through it.
func (s *Server) guardSolve(ctx context.Context, e *Entry, src rs.Vertex, solve func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.solvePanics.Inc()
			if s.logger != nil {
				s.logger.Error("solve panic", "graph", e.Name, "source", int64(src), "panic", fmt.Sprint(r))
			}
			err = fmt.Errorf("server: solve panic: %v", r)
		}
	}()
	if err := fault.Check(ctx, fault.SiteSolve); err != nil {
		return err
	}
	return solve()
}

// fillCache publishes a solved vector to the distance cache. The fill
// is best-effort: an injected (or real) failure here must never fail
// the response — the solve already produced a correct answer — so
// errors skip the fill and panics are contained to a counter.
func (s *Server) fillCache(ctx context.Context, e *Entry, key cacheKey, src rs.Vertex, d []float64) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.solvePanics.Inc()
			if s.logger != nil {
				s.logger.Error("cache fill panic", "graph", e.Name, "source", int64(src), "panic", fmt.Sprint(r))
			}
		}
	}()
	if err := fault.Check(ctx, fault.SiteCacheFill); err != nil {
		return
	}
	s.cache.Add(key, d)
}

// logSolve emits one structured log line per executed solve (cache hits
// and coalesced joins are request-level events, not solves).
func (s *Server) logSolve(graph string, src rs.Vertex, st rs.Stats, dur time.Duration) {
	if s.logger == nil {
		return
	}
	s.logger.Info("solve",
		"graph", graph,
		"source", int64(src),
		"engine", st.Engine,
		"steps", st.Steps,
		"substeps", st.Substeps,
		"relaxations", st.Relaxations,
		"durMicros", dur.Microseconds())
}

// --- request/response types ----------------------------------------------

type distancesRequest struct {
	Graph   string  `json:"graph"`
	Source  int64   `json:"source"`
	TopK    int     `json:"topk,omitempty"`
	Targets []int64 `json:"targets,omitempty"`
}

// vertexDistance pairs a vertex with its distance (-1 = unreachable).
type vertexDistance struct {
	Vertex   int64   `json:"vertex"`
	Distance float64 `json:"distance"`
}

type distancesResponse struct {
	Graph  string `json:"graph"`
	Source int64  `json:"source"`
	// Epoch is the graph epoch this answer was computed on. Clients
	// driving hot reloads use it to assert freshness: a response
	// reporting epoch N carries distances byte-identical to epoch N's
	// snapshot, never a mix.
	Epoch     uint64           `json:"epoch,omitempty"`
	Cached    bool             `json:"cached"`
	Reached   int              `json:"reached"`
	Distances []float64        `json:"distances,omitempty"`
	Nearest   []vertexDistance `json:"nearest,omitempty"`
	Targets   []vertexDistance `json:"targets,omitempty"`
	// Trace is the solve timeline, present only for ?trace=1 requests.
	Trace *rs.Timeline `json:"trace,omitempty"`
	Error string       `json:"error,omitempty"`

	// body, when set, is Distances as a JSON array, which the distance
	// writer sends in place of formatting Distances.
	body []byte
}

type routeRequest struct {
	Graph  string `json:"graph"`
	Source int64  `json:"source"`
	Target int64  `json:"target"`
}

type routeResponse struct {
	Graph  string `json:"graph"`
	Source int64  `json:"source"`
	Target int64  `json:"target"`
	// Epoch is the graph epoch the route was computed on (cache-first
	// answers report the epoch whose cached vector they used — the key
	// embeds it, so it is necessarily the request's pinned epoch).
	Epoch    uint64  `json:"epoch,omitempty"`
	Distance float64 `json:"distance"` // -1 when unreachable
	Hops     int     `json:"hops"`
	Path     []int64 `json:"path,omitempty"`
	// Cached reports the route was reconstructed from a cached full
	// distance vector — no solve ran and no solve slot was held.
	Cached bool `json:"cached,omitempty"`
}

// --- handlers -------------------------------------------------------------

// handleHealthz is pure liveness: 200 for as long as the process can
// serve HTTP at all, even while loading or draining. Orchestrators use
// it to decide restarts; routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"graphs":        len(s.registry.List()),
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
	})
}

// handleReadyz is the routing gate, now per-graph: 503 while the
// daemon is still loading or draining, 503 when graphs are registered
// but ZERO are serving, 200 "ready" when every graph serves, and 200
// "degraded" when at least one serves while others have failed — a
// degraded daemon is still worth routing to. The body carries
// per-graph states so an operator sees which graph is the problem from
// the probe alone.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "loading"})
		return
	}
	// One scan, so the counts and the per-graph states agree.
	health := s.registry.Health()
	states := make(map[string]string, len(health))
	serving, total := 0, len(health)
	for _, h := range health {
		states[h.Name] = h.State
		if h.State != GraphFailed {
			serving++
		}
	}
	body := map[string]any{"graphs": serving, "registered": total}
	switch {
	case total > 0 && serving == 0:
		body["status"] = "unavailable"
		body["perGraph"] = states
		writeJSON(w, http.StatusServiceUnavailable, body)
	case serving < total:
		body["status"] = "degraded"
		body["perGraph"] = states
		writeJSON(w, http.StatusOK, body)
	default:
		body["status"] = "ready"
		writeJSON(w, http.StatusOK, body)
	}
}

func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	entries := s.registry.List()
	infos := make([]GraphInfo, len(entries))
	for i, e := range entries {
		infos[i] = e.Info
	}
	// health covers every registered graph — including failed ones that
	// have no serving entry above — with epoch, quarantine
	// error (classed truncated vs corrupt), and re-probe schedule.
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs": infos,
		"health": s.registry.Health(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *Server) handleDistances(w http.ResponseWriter, r *http.Request) {
	var req distancesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, src, ok := s.resolve(w, req.Graph, req.Source)
	if !ok {
		return
	}
	if !s.checkTargets(w, e, req.Targets) {
		return
	}
	ctx, cancel, cerr := s.requestCtx(r)
	if cerr != nil {
		s.fail(w, http.StatusBadRequest, "%v", cerr)
		return
	}
	defer cancel()
	var resp distancesResponse
	var status int
	if traceParam(r) {
		resp, status = s.answerTraced(ctx, e, src, req.TopK, req.Targets)
	} else {
		resp, status = s.answerSource(ctx, e, src, req.TopK, req.Targets)
	}
	writeDistances(w, status, &resp)
}

// traceParam reports whether the request asked for a solve timeline.
func traceParam(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

// answerTraced runs one traced source query. Tracing deliberately
// bypasses the cache and coalescing on both read and write: the
// timeline must describe an actual solve executed for this request, and
// a traced solve's extra clock reads should not pollute the shared
// cache path timings. The pool still bounds it like any other solve.
func (s *Server) answerTraced(ctx context.Context, e *Entry, src rs.Vertex, topK int, targets []int64) (distancesResponse, int) {
	resp := distancesResponse{Graph: e.Name, Source: int64(src), Epoch: e.Epoch}
	r, err := s.solveFull(ctx, e, src, true)
	if err != nil {
		s.recordSolveError(err)
		resp.Error = err.Error()
		return resp, solveStatus(err)
	}
	resp.Trace = r.Timeline
	shapeDistances(&resp, vector{dist: r.Dist, reached: countReached(r.Dist)}, topK, targets)
	return resp, http.StatusOK
}

// checkTargets range-checks target vertices before any solve runs, so a
// bad target is rejected for free instead of after a full SSSP.
func (s *Server) checkTargets(w http.ResponseWriter, e *Entry, targets []int64) bool {
	n := int64(e.numVertices())
	for _, t := range targets {
		if t < 0 || t >= n {
			s.fail(w, http.StatusBadRequest, "target %d out of range [0, %d)", t, n)
			return false
		}
	}
	return true
}

// answerSource runs one untraced source query and shapes the response
// per the topk/targets options. The first full-vector response for a
// cached vector with room for a body builds the body and attaches it to
// the cache.
func (s *Server) answerSource(ctx context.Context, e *Entry, src rs.Vertex, topK int, targets []int64) (distancesResponse, int) {
	resp := distancesResponse{Graph: e.Name, Source: int64(src), Epoch: e.Epoch}
	v, cached, err := s.distances(ctx, e, src)
	if err != nil {
		s.recordSolveError(err)
		resp.Error = err.Error()
		return resp, solveStatus(err)
	}
	resp.Cached = cached
	shapeDistances(&resp, v, topK, targets)
	if len(resp.Distances) > 0 && v.build > 0 {
		resp.body = appendDistances(make([]byte, 0, v.build), v.dist)
		s.cache.AttachBody(cacheKey{graph: e.Name, epoch: e.Epoch, src: int32(src)}, v.dist, resp.body)
	}
	return resp, http.StatusOK
}

// shapeDistances fills the response body per the topk/targets options.
// A full vector is not copied: resp.Distances aliases v.dist, which may
// be the shared read-only cached vector and holds +Inf for unreachable
// vertices, so only the distance writer may encode it, and resp.body is
// the vector's cached body, if any.
func shapeDistances(resp *distancesResponse, v vector, topK int, targets []int64) {
	dist := v.dist
	resp.Reached = v.reached
	switch {
	case len(targets) > 0:
		// Targets were range-checked by the handler before the solve.
		resp.Targets = make([]vertexDistance, 0, len(targets))
		for _, t := range targets {
			resp.Targets = append(resp.Targets, vertexDistance{Vertex: t, Distance: finite(dist[t])})
		}
	case topK > 0:
		resp.Nearest = nearestK(dist, topK)
	default:
		resp.Distances, resp.body = dist, v.body
	}
}

// handleRoute answers a point-to-point query, cheapest strategy first:
//
//  1. A cached full distance vector for the source answers the route by
//     tight-edge reconstruction alone — no solve, no solve slot.
//  2. Otherwise an early-terminated solve runs under the pool, pruned
//     by the graph's landmarks when it has any.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req routeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	e, src, ok := s.resolve(w, req.Graph, req.Source)
	if !ok {
		return
	}
	if n := e.numVertices(); req.Target < 0 || req.Target >= int64(n) {
		s.fail(w, http.StatusBadRequest, "target %d out of range [0, %d)", req.Target, n)
		return
	}
	dst := rs.Vertex(req.Target)
	resp := routeResponse{Graph: e.Name, Source: req.Source, Target: req.Target, Epoch: e.Epoch}

	// Cache-first: a full vector for this source already holds every
	// distance, and reconstruction is a cheap backward walk — answering
	// here keeps the solve pool free for real misses.
	if v, hit := s.cache.Get(cacheKey{graph: e.Name, epoch: e.Epoch, src: int32(src)}); hit {
		path, d, err := e.Solver.PathFromDistances(e.storedID(src), e.storedID(dst), e.storedDistances(v.dist))
		if err == nil {
			s.metrics.routeCacheHits.Inc()
			resp.Cached = true
			writeRoute(w, resp, e.clientPath(path), d)
			return
		}
		// An unusable cached vector falls through to a real solve
		// rather than failing the request.
	}

	ctx, cancel, cerr := s.requestCtx(r)
	if cerr != nil {
		s.fail(w, http.StatusBadRequest, "%v", cerr)
		return
	}
	defer cancel()
	path, d, err := s.solveRoute(ctx, e, src, dst)
	if err != nil {
		s.recordSolveError(err)
		s.failSolve(w, err, "route: %v", err)
		return
	}
	s.metrics.routeSolves.Inc()
	writeRoute(w, resp, path, d)
}

// solveRoute runs one route solve under a pool slot and the solve
// guard, and maps the path back to client ids. The solve prunes with
// the graph's landmarks, if it has any. The candidates pruning
// skipped go to the routePruned counter, not into the response: the
// count depends on the order a kernel meets candidates, so it differs
// between engines while the route does not.
func (s *Server) solveRoute(ctx context.Context, e *Entry, src, dst rs.Vertex) ([]rs.Vertex, float64, error) {
	if err := s.pool.acquire(ctx); err != nil {
		return nil, 0, err
	}
	defer s.pool.release()
	t0 := time.Now()
	var r rs.Result
	err := s.guardSolve(ctx, e, src, func() (err error) {
		r, err = e.Solver.Solve(ctx, rs.Query{
			Source: e.storedID(src), Target: e.storedID(dst), HasTarget: true, Prune: true,
		})
		return err
	})
	// A pair a landmark proves unreachable returns without a solve (no
	// steps) and is not timed.
	if err == nil && r.Stats.Steps > 0 {
		s.metrics.routeSolveDur.With(r.Stats.Engine).Observe(time.Since(t0).Seconds())
	}
	if r.Stats.Pruned > 0 {
		s.metrics.routePruned.Add(r.Stats.Pruned)
	}
	return e.clientPath(r.Path), r.Distance, err
}

// writeRoute finishes a route response from the computed path.
func writeRoute(w http.ResponseWriter, resp routeResponse, path []rs.Vertex, d float64) {
	resp.Distance = finite(d)
	if len(path) > 0 {
		resp.Hops = len(path) - 1
		resp.Path = make([]int64, len(path))
		for i, v := range path {
			resp.Path[i] = int64(v)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- helpers --------------------------------------------------------------

// resolve pins the graph's current epoch and validates the source
// vertex. The returned Entry is the request's epoch for its whole
// lifetime: cache lookups, coalescing, the solve, and the response all
// use it, so a concurrent reload never mixes epochs within a request.
// The registry's typed errors map onto HTTP: unknown → 404; never
// loaded → 503 with the quarantine cause.
func (s *Server) resolve(w http.ResponseWriter, graph string, source int64) (*Entry, rs.Vertex, bool) {
	e, err := s.registry.Acquire(graph)
	switch {
	case errors.Is(err, ErrGraphUnknown):
		s.fail(w, http.StatusNotFound, "unknown graph %q", graph)
		return nil, 0, false
	case err != nil:
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return nil, 0, false
	}
	if n := e.numVertices(); source < 0 || source >= int64(n) {
		s.fail(w, http.StatusBadRequest, "source %d out of range [0, %d)", source, n)
		return nil, 0, false
	}
	return e, rs.Vertex(source), true
}

// fail writes an error response; the instrumentation middleware counts
// it into the per-endpoint, per-status-class error family.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// finite maps +Inf (unreachable) to the JSON-safe sentinel -1.
func finite(d float64) float64 {
	if math.IsInf(d, 1) {
		return -1
	}
	return d
}

// nearestK returns the k closest reachable vertices, ties broken by id.
// A bounded max-heap keeps this O(n log k) with O(k) extra memory —
// cached hot sources answer top-k requests without an O(n log n) sort.
func nearestK(dist []float64, k int) []vertexDistance {
	if k <= 0 {
		return nil
	}
	// after reports whether a sorts after b (farther, or same distance
	// with a larger id); the heap keeps the "worst kept" entry at h[0].
	after := func(a, b vertexDistance) bool {
		if a.Distance != b.Distance {
			return a.Distance > b.Distance
		}
		return a.Vertex > b.Vertex
	}
	// k comes from the client; the answer never holds more than len(dist).
	h := make([]vertexDistance, 0, min(k, len(dist)))
	siftDown := func() {
		i := 0
		for {
			l, r, worst := 2*i+1, 2*i+2, i
			if l < len(h) && after(h[l], h[worst]) {
				worst = l
			}
			if r < len(h) && after(h[r], h[worst]) {
				worst = r
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for v, d := range dist {
		if math.IsInf(d, 1) {
			continue
		}
		cand := vertexDistance{Vertex: int64(v), Distance: d}
		if len(h) < k {
			h = append(h, cand)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !after(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		} else if after(h[0], cand) {
			h[0] = cand
			siftDown()
		}
	}
	sort.Slice(h, func(i, j int) bool { return after(h[j], h[i]) })
	return h
}
