package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"radiusstep/internal/fault"
)

// newChaosServer serves a real generated graph once per engine in
// testEngines, through LoadConfig like cmd/ssspd: every query path must
// stay correct under injected faults on every engine, and the
// survivors' bodies must be byte-identical across all of them apart
// from the graph's name and epoch. The cache is disabled so every
// request runs the full flight → pool → engine pipeline.
func newChaosServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	fault.Clear()
	t.Cleanup(fault.Clear)
	s, ts, _ := serveEngines(t, Config{Workers: 2, QueueDepth: 64, CacheBytes: 0, SolveTimeout: 30 * time.Second},
		GraphConfig{Gen: "grid2d", N: 400, Seed: 9, Weights: 100, Rho: 8})
	return s, ts
}

// chaosQuery is one request the chaos suite repeats: a distances vector
// from src, or the route from src to chaosTarget.
type chaosQuery struct {
	endpoint string
	src      int64
}

// chaosTarget is the route target of every /v1/route chaos query.
const chaosTarget = 210

// chaosGet runs q on the graph served under engine and returns the
// status and the body without its graph name and epoch, which
// survivors must match byte for byte.
func chaosGet(t *testing.T, ts *httptest.Server, q chaosQuery, engine string) (int, string) {
	t.Helper()
	body := fmt.Sprintf(`{"graph":%q,"source":%d}`, engine, q.src)
	if q.endpoint == "/v1/route" {
		body = fmt.Sprintf(`{"graph":%q,"source":%d,"target":%d}`, engine, q.src, chaosTarget)
	}
	code, raw := postRaw(t, ts, q.endpoint, body)
	return code, namelessBody.ReplaceAllString(raw, "")
}

// TestChaosLoadFaults drives the snapshot-load seam: an injected error
// or panic during graph construction must come back as a clean error
// from BuildEntry, never a crash, and clearing the plan restores loads.
func TestChaosLoadFaults(t *testing.T) {
	fault.Clear()
	t.Cleanup(fault.Clear)
	cfg := GraphConfig{Name: "lf", Gen: "grid2d", N: 100, Seed: 1, Weights: 10, Rho: 4}

	fault.Inject(fault.SiteSnapshotLoad, fault.Plan{Err: errors.New("disk gone")})
	if _, err := BuildEntry(cfg); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected load error: %v, want ErrInjected", err)
	}

	fault.Inject(fault.SiteSnapshotLoad, fault.Plan{Panic: "loader exploded"})
	entry, err := BuildEntry(cfg)
	if entry != nil || err == nil || !strings.Contains(err.Error(), "load panic") {
		t.Fatalf("injected load panic: entry=%v err=%v, want contained panic error", entry, err)
	}

	fault.Clear()
	if _, err := BuildEntry(cfg); err != nil {
		t.Fatalf("load after Clear: %v", err)
	}
}

// TestChaosSuite is the end-to-end fault drill: a real graph served
// over HTTP, concurrent clients across all five engines, faults
// injected at the solve and cache-fill seams (errors, delays, panics)
// on the distances and route paths. Afterward: no goroutine leaks, no
// stuck pool slots, and every surviving 200 carries a byte-identical
// body to the no-fault baseline.
func TestChaosSuite(t *testing.T) {
	before := runtime.NumGoroutine()
	_, ts := newChaosServer(t)

	sources := []int64{0, 17, 123, 399}
	endpoints := []string{"/v1/distances", "/v1/route"}
	// No-fault baseline, one body per query. Distances and routes are
	// engine-independent and the bodies carry no engine field, so all
	// engines must reproduce the same bytes.
	baseline := make(map[chaosQuery]string)
	for _, ep := range endpoints {
		for _, src := range sources {
			q := chaosQuery{ep, src}
			code, body := chaosGet(t, ts, q, testEngines[0])
			if code != http.StatusOK {
				t.Fatalf("baseline %s src=%d: status %d", ep, src, code)
			}
			baseline[q] = body
		}
		q := chaosQuery{ep, sources[0]}
		for _, eng := range testEngines[1:] {
			code, body := chaosGet(t, ts, q, eng)
			if code != http.StatusOK || body != baseline[q] {
				t.Fatalf("engine %s %s baseline: status %d, body match=%v", eng, ep, code, body == baseline[q])
			}
		}
	}

	type phase struct {
		name     string
		endpoint string
		plan     fault.Plan
		site     string
		// wantFail: injected failures may surface as non-200s.
		wantFail bool
	}
	phases := []phase{
		{name: "solve-delay", endpoint: "/v1/distances", site: fault.SiteSolve, plan: fault.Plan{Delay: 5 * time.Millisecond}},
		{name: "solve-error", endpoint: "/v1/distances", site: fault.SiteSolve, plan: fault.Plan{Err: errors.New("engine offline"), Limit: 5}, wantFail: true},
		{name: "solve-panic", endpoint: "/v1/distances", site: fault.SiteSolve, plan: fault.Plan{Panic: "engine exploded", Limit: 5}, wantFail: true},
		{name: "cache-fill-error", endpoint: "/v1/distances", site: fault.SiteCacheFill, plan: fault.Plan{Err: errors.New("cache offline")}},
		{name: "cache-fill-panic", endpoint: "/v1/distances", site: fault.SiteCacheFill, plan: fault.Plan{Panic: "cache exploded"}},
		{name: "route-solve-error", endpoint: "/v1/route", site: fault.SiteSolve, plan: fault.Plan{Err: errors.New("engine offline"), Limit: 5}, wantFail: true},
		{name: "route-solve-panic", endpoint: "/v1/route", site: fault.SiteSolve, plan: fault.Plan{Panic: "engine exploded", Limit: 5}, wantFail: true},
	}

	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			fault.Inject(ph.site, ph.plan)
			defer fault.Remove(ph.site)

			var wg sync.WaitGroup
			var mu sync.Mutex
			var failures, successes int
			for ci := 0; ci < 10; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					for qi := 0; qi < 4; qi++ {
						q := chaosQuery{ph.endpoint, sources[(ci+qi)%len(sources)]}
						eng := testEngines[(ci+qi)%len(testEngines)]
						code, body := chaosGet(t, ts, q, eng)
						mu.Lock()
						if code == http.StatusOK {
							successes++
							if body != baseline[q] {
								t.Errorf("%s: survivor src=%d engine=%s body diverged from baseline", ph.name, q.src, eng)
							}
						} else {
							failures++
							if !ph.wantFail {
								t.Errorf("%s: unexpected status %d (src=%d engine=%s): %s", ph.name, code, q.src, eng, body)
							}
						}
						mu.Unlock()
					}
				}(ci)
			}
			wg.Wait()
			if successes == 0 {
				t.Fatalf("%s: no surviving queries at all", ph.name)
			}
			if ph.wantFail && failures == 0 {
				t.Errorf("%s: limit-bounded fault never fired", ph.name)
			}
			// The seam actually fired.
			if fault.Fired(ph.site) == 0 {
				t.Errorf("%s: fault site %s never checked", ph.name, ph.site)
			}
		})
	}

	// Aftermath: the server must be fully drained and healthy.
	flightWait(t, "pool and flight drain", func() bool {
		snap := fetchStats(t, ts)
		return snap.Pool.InUse == 0 && snap.Pool.Waiting == 0 && snap.Flight.InFlight == 0
	})
	snap := fetchStats(t, ts)
	if snap.SolvePanics == 0 {
		t.Error("solve-panic phase left no solvePanics count")
	}
	// Post-chaos sanity: all engines still serve the baseline bytes.
	for _, ep := range endpoints {
		q := chaosQuery{ep, sources[1]}
		for _, eng := range testEngines {
			code, body := chaosGet(t, ts, q, eng)
			if code != http.StatusOK || body != baseline[q] {
				t.Fatalf("post-chaos engine %s %s: status %d, body match=%v", eng, ep, code, body == baseline[q])
			}
		}
	}

	// No goroutine leaks: transport and handler goroutines wind down
	// once idle connections close.
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before chaos, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
