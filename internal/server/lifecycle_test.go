package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radiusstep/internal/fault"
)

// poolDrained waits for the server to report zero slots in use and an
// empty wait queue — the "released its slot, queue depth zero"
// acceptance check.
func poolDrained(t *testing.T, ts *httptest.Server) {
	t.Helper()
	flightWait(t, "pool to drain", func() bool {
		snap := fetchStats(t, ts)
		return snap.Pool.InUse == 0 && snap.Pool.Waiting == 0 && snap.Flight.InFlight == 0
	})
}

// TestSolveTimeoutReturns504: a request whose ?timeout_ms= budget
// expires mid-solve gets a gateway-timeout answer promptly, and the
// abandoned solve releases its pool slot.
func TestSolveTimeoutReturns504(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	injectSolve(t, fault.Plan{Gate: gate})
	_, ts, _ := newTestServer(t, Config{Workers: 1, CacheBytes: 0})

	start := time.Now()
	var resp distancesResponse
	code := postJSON(t, ts, "/v1/distances?timeout_ms=50", distancesRequest{Graph: "grid", Source: 0}, &resp)
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (resp %+v)", code, resp)
	}
	if resp.Error == "" {
		t.Fatal("504 body carries no error message")
	}
	// ~2x the 50ms deadline plus scheduler slop; generous for CI.
	if elapsed > 2*time.Second {
		t.Fatalf("504 took %v, deadline was 50ms", elapsed)
	}
	poolDrained(t, ts)
	snap := fetchStats(t, ts)
	if snap.SolveTimeouts < 1 {
		t.Fatalf("solveTimeouts: %d, want >= 1", snap.SolveTimeouts)
	}
}

// TestServerSolveTimeoutDefault: the server-wide SolveTimeout bounds
// requests that carry no per-request override.
func TestServerSolveTimeoutDefault(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	injectSolve(t, fault.Plan{Gate: gate})
	_, ts, _ := newTestServer(t, Config{Workers: 1, SolveTimeout: 50 * time.Millisecond})

	var resp distancesResponse
	if code := postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 0}, &resp); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	// The override can shorten but never extend the server budget:
	// asking for 10s still times out on the 50ms server limit.
	start := time.Now()
	if code := postJSON(t, ts, "/v1/distances?timeout_ms=10000", distancesRequest{Graph: "grid", Source: 1}, &resp); code != http.StatusGatewayTimeout {
		t.Fatalf("extend attempt: status %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("extend attempt took %v, server budget was 50ms", elapsed)
	}
	poolDrained(t, ts)
}

func TestBadTimeoutParamRejected(t *testing.T) {
	injectSolve(t, fault.Plan{})
	_, ts, _ := newTestServer(t, Config{})
	for _, raw := range []string{"abc", "-5", "0"} {
		var resp distancesResponse
		if code := postJSON(t, ts, "/v1/distances?timeout_ms="+raw, distancesRequest{Graph: "grid", Source: 0}, &resp); code != http.StatusBadRequest {
			t.Fatalf("timeout_ms=%s: status %d, want 400", raw, code)
		}
	}
	if got := fault.Fired(fault.SiteSolve); got != 0 {
		t.Fatalf("bad timeout reached the solver %d times", got)
	}
}

// TestQueueFullSheds503: one slot busy, one queue position filled — the
// third concurrent query must be shed with 503 + Retry-After instead of
// queuing without bound.
func TestQueueFullSheds503(t *testing.T) {
	gate := make(chan struct{})
	injectSolve(t, fault.Plan{Gate: gate})
	_, ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheBytes: 0})

	codes := make(chan int, 2)
	for src := int64(0); src < 2; src++ {
		go func(src int64) {
			var resp distancesResponse
			codes <- postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: src}, &resp)
		}(src)
	}
	flightWait(t, "slot busy and queue full", func() bool {
		snap := fetchStats(t, ts)
		return snap.Pool.InUse == 1 && snap.Pool.Waiting == 1
	})

	r, err := ts.Client().Post(ts.URL+"/v1/distances", "application/json",
		strings.NewReader(`{"graph":"grid","source":2}`))
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request: status %d, want 503", r.StatusCode)
	}
	if got := r.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After: %q, want \"1\"", got)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("held request %d: status %d", i, code)
		}
	}
	poolDrained(t, ts)
	snap := fetchStats(t, ts)
	if snap.Shed != 1 || snap.Pool.Shed != 1 {
		t.Fatalf("shed counters: stats=%d pool=%d, want 1/1", snap.Shed, snap.Pool.Shed)
	}
}

// TestSolvePanicContained: an engine panic on any solve path —
// distances, traced distances, routes — becomes a 500 and a counter
// increment; the daemon keeps serving and no slot is stranded.
func TestSolvePanicContained(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})
	for i, q := range []struct {
		endpoint, query string
		req             any
	}{
		{"/v1/distances", "", distancesRequest{Graph: "grid", Source: 0}},
		{"/v1/distances", "?trace=1", distancesRequest{Graph: "grid", Source: 1}},
		{"/v1/route", "", routeRequest{Graph: "grid", Source: 2, Target: 5}},
	} {
		injectSolve(t, fault.Plan{Panic: "injected engine panic", Limit: 1})
		var resp struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts, q.endpoint+q.query, q.req, &resp); code != http.StatusInternalServerError {
			t.Fatalf("%s%s panicking solve: status %d, want 500", q.endpoint, q.query, code)
		}
		if !strings.Contains(resp.Error, "panic") {
			t.Fatalf("%s%s: 500 body does not mention the panic: %q", q.endpoint, q.query, resp.Error)
		}
		if snap := fetchStats(t, ts); snap.SolvePanics != int64(i+1) {
			t.Fatalf("%s%s: solvePanics %d, want %d", q.endpoint, q.query, snap.SolvePanics, i+1)
		}
		_, samples := scrape(t, ts)
		if v, _ := sampleValue(samples, "sssp_http_errors_total", map[string]string{"endpoint": q.endpoint, "class": "5xx"}); v < 1 {
			t.Fatalf("%s%s: 5xx counter %v, want >= 1", q.endpoint, q.query, v)
		}
		poolDrained(t, ts)

		// The daemon survived: the same request succeeds on the same slot.
		if code := postJSON(t, ts, q.endpoint+q.query, q.req, nil); code != http.StatusOK {
			t.Fatalf("%s%s post-panic solve: status %d, want 200", q.endpoint, q.query, code)
		}
	}
}

// TestReadyzLifecycle: /readyz tracks loading and draining states while
// /healthz stays 200 throughout — liveness and routability are
// different questions.
func TestReadyzLifecycle(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})

	check := func(wantCode int, wantStatus string) {
		t.Helper()
		var body map[string]any
		if code := getJSON(t, ts, "/readyz", &body); code != wantCode {
			t.Fatalf("readyz: status %d, want %d (%v)", code, wantCode, body)
		}
		if body["status"] != wantStatus {
			t.Fatalf("readyz body: %v, want status %q", body, wantStatus)
		}
		if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
			t.Fatalf("healthz: status %d, want 200 always", code)
		}
	}

	check(http.StatusOK, "ready")
	s.SetReady(false)
	check(http.StatusServiceUnavailable, "loading")
	s.SetReady(true)
	check(http.StatusOK, "ready")
	s.BeginDrain()
	check(http.StatusServiceUnavailable, "draining")
	if s.Ready() {
		t.Fatal("Ready() true while draining")
	}
	// Nothing in flight: drain completes immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain with idle pool: %v", err)
	}
}

// TestDrainThenAbort: a straggler solve holds Drain past its grace;
// Abort cancels it through the flight layer and the client gets a
// cancellation-class answer.
func TestDrainThenAbort(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	injectSolve(t, fault.Plan{Gate: gate})
	// SolveTimeout < 0 disables the server deadline: only Abort can end
	// this solve.
	s, ts, _ := newTestServer(t, Config{Workers: 1, SolveTimeout: -1, CacheBytes: 0})

	done := make(chan int, 1)
	go func() {
		var resp distancesResponse
		done <- postJSON(t, ts, "/v1/distances", distancesRequest{Graph: "grid", Source: 0}, &resp)
	}()
	flightWait(t, "straggler to occupy its slot", func() bool {
		return fetchStats(t, ts).Pool.InUse == 1
	})

	s.BeginDrain()
	graceCtx, graceCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer graceCancel()
	if err := s.Drain(graceCtx); err == nil {
		t.Fatal("Drain returned nil with a solve still in flight")
	}

	s.Abort()
	if code := <-done; code != statusClientClosedRequest {
		t.Fatalf("aborted straggler: status %d, want %d", code, statusClientClosedRequest)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after Abort: %v", err)
	}
	poolDrained(t, ts)
	if snap := fetchStats(t, ts); snap.SolvesCanceled < 1 {
		t.Fatalf("solvesCanceled: %d, want >= 1", snap.SolvesCanceled)
	}
}

// TestRouteTimeout504: the route path threads the request deadline
// into its solve too.
func TestRouteTimeout504(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	injectSolve(t, fault.Plan{Gate: gate})
	_, ts, _ := newTestServer(t, Config{Workers: 1})

	var resp routeResponse
	code := postJSON(t, ts, "/v1/route?timeout_ms=50", routeRequest{Graph: "grid", Source: 0, Target: 5}, &resp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("route timeout: status %d, want 504 (%+v)", code, resp)
	}
	poolDrained(t, ts)
}
