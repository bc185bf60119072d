package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radiusstep/internal/fault"

	rs "radiusstep"
)

// packWeighted writes a serving-ready snapshot of a 12x12 grid whose
// edges ALL weigh exactly w, so every shortest distance is a multiple
// of w — a reload that changes w changes every answer proportionally,
// which is how the tests below detect epoch mixing. Sentinel radii skip
// preprocessing, keeping reloads fast.
func packWeighted(t *testing.T, path string, w int) {
	t.Helper()
	g := rs.WithUniformIntWeights(rs.Grid2D(12, 12), w, w, 1)
	radii := make([]float64, g.NumVertices())
	for i := range radii {
		radii[i] = 4
	}
	if err := rs.WriteSnapshotFile(path, &rs.Snapshot{G: g, Radii: radii, Rho: 8, K: 1, Heuristic: "direct"}); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
}

// newLifecycleServer loads the given specs through the epoch-versioned
// registry (the daemon's path, including degraded registration of
// failing specs) and serves them over HTTP.
func newLifecycleServer(t testing.TB, cfg Config, specs ...GraphConfig) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for _, gc := range specs {
		_ = reg.LoadConfig(gc) // failures register quarantined — intended
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// queryTargets fetches distances to vertices 1 and 2 of the grid (w and
// 2w from source 0) and returns status, epoch, and both distances.
func queryTargets(t *testing.T, ts *httptest.Server, graph string) (code int, epoch uint64, d1, d2 float64) {
	t.Helper()
	body := fmt.Sprintf(`{"graph":%q,"source":0,"targets":[1,2]}`, graph)
	r, err := ts.Client().Post(ts.URL+"/v1/distances", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer r.Body.Close()
	var resp distancesResponse
	if derr := json.NewDecoder(r.Body).Decode(&resp); derr != nil && r.StatusCode == http.StatusOK {
		t.Fatalf("decode: %v", derr)
	}
	if len(resp.Targets) == 2 {
		d1, d2 = resp.Targets[0].Distance, resp.Targets[1].Distance
	}
	return r.StatusCode, resp.Epoch, d1, d2
}

// TestHotReloadSwapsEpoch: a reload atomically replaces the serving
// epoch — answers change, the epoch counter moves, and the distance
// cache cannot serve the old epoch's vector afterward (its key embeds
// the dead epoch).
func TestHotReloadSwapsEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)
	s, ts := newLifecycleServer(t, Config{CacheBytes: 1 << 20}, GraphConfig{Name: "g", Snapshot: path})

	code, epoch1, d1, d2 := queryTargets(t, ts, "g")
	if code != http.StatusOK || d1 != 100 || d2 != 200 {
		t.Fatalf("before reload: code=%d d1=%v d2=%v, want 200/100/200", code, d1, d2)
	}
	// Prime the cache, then reload with doubled weights.
	if code, _, _, _ := queryTargets(t, ts, "g"); code != http.StatusOK {
		t.Fatalf("cache-priming query failed: %d", code)
	}
	packWeighted(t, path, 200)
	if err := s.Registry().Reload("g"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	code, epoch2, d1, d2 := queryTargets(t, ts, "g")
	if code != http.StatusOK || d1 != 200 || d2 != 400 {
		t.Fatalf("after reload: code=%d d1=%v d2=%v, want 200/200/400 — stale epoch served", code, d1, d2)
	}
	if epoch2 <= epoch1 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch1, epoch2)
	}
	if c := s.Registry().Counters(); c.Reloads != 1 {
		t.Fatalf("reloads counter = %d, want 1", c.Reloads)
	}
	// The cached vector now carries the new epoch.
	code, epoch3, d1, _ := queryTargets(t, ts, "g")
	if code != http.StatusOK || epoch3 != epoch2 || d1 != 200 {
		t.Fatalf("cached answer after reload: code=%d epoch=%d d1=%v, want %d/200", code, epoch3, d1, epoch2)
	}
}

// TestReloadUnderLoadZeroStale is the tentpole's live drill: sustained
// concurrent queries across repeated hot reloads, with ZERO failed
// responses and zero torn answers. Torn epochs are detectable by
// construction: all edges weigh w per epoch, so any 200 whose two
// target distances are not (w, 2w) for a single w mixed two epochs.
func TestReloadUnderLoadZeroStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)
	s, ts := newLifecycleServer(t, Config{CacheBytes: 1 << 20, Workers: 4}, GraphConfig{Name: "g", Snapshot: path})

	var stop atomic.Bool
	var queries, bad atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				code, epoch, d1, d2 := queryTargets(t, ts, "g")
				queries.Add(1)
				if code != http.StatusOK {
					bad.Add(1)
					continue
				}
				if epoch == 0 || (d1 != 100 && d1 != 200) || d2 != 2*d1 {
					t.Errorf("torn/stale answer: epoch=%d d1=%v d2=%v", epoch, d1, d2)
					bad.Add(1)
				}
			}
		}()
	}

	const reloads = 10
	for i := 0; i < reloads; i++ {
		w := 100
		if i%2 == 0 {
			w = 200
		}
		packWeighted(t, path, w)
		if err := s.Registry().Reload("g"); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if q := queries.Load(); q < int64(reloads) {
		t.Fatalf("only %d queries ran across %d reloads", q, reloads)
	}
	if b := bad.Load(); b != 0 {
		t.Fatalf("%d failed/stale responses during reload-under-load (of %d)", b, queries.Load())
	}
	if c := s.Registry().Counters(); c.Reloads != reloads {
		t.Fatalf("reloads counter = %d, want %d", c.Reloads, reloads)
	}
}

// TestQuarantineKeepsOldEpochServing: a reload that fails validation
// (truncated snapshot) must leave the previous epoch serving untouched,
// mark the graph quarantined with the truncation class, count the
// failure, and recover on the next good reload.
func TestQuarantineKeepsOldEpochServing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)
	s, ts := newLifecycleServer(t, Config{}, GraphConfig{Name: "g", Snapshot: path})

	_, epoch1, d1, _ := queryTargets(t, ts, "g")
	if d1 != 100 {
		t.Fatalf("baseline d1=%v, want 100", d1)
	}

	// Truncate the file in place and attempt a reload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatalf("truncate snapshot: %v", err)
	}
	rerr := s.Registry().Reload("g")
	if rerr == nil {
		t.Fatal("reload of truncated snapshot succeeded")
	}
	if !errors.Is(rerr, rs.ErrSnapshotTruncated) {
		t.Fatalf("reload error %v, want ErrSnapshotTruncated in chain", rerr)
	}

	// Old epoch still serves the old answers.
	code, epoch2, d1, _ := queryTargets(t, ts, "g")
	if code != http.StatusOK || epoch2 != epoch1 || d1 != 100 {
		t.Fatalf("after failed reload: code=%d epoch=%d d1=%v, want 200/%d/100", code, epoch2, d1, epoch1)
	}
	var h GraphHealth
	for _, gh := range s.Registry().Health() {
		if gh.Name == "g" {
			h = gh
		}
	}
	if h.State != GraphQuarantined || h.ErrorClass != "truncated" || h.Failures != 1 {
		t.Fatalf("health = %+v, want quarantined/truncated/1", h)
	}
	if c := s.Registry().Counters(); c.LoadFailures != 1 {
		t.Fatalf("loadFailures = %d, want 1", c.LoadFailures)
	}
	if got := s.Registry().Counters().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}

	// Fix the file; the next reload recovers and clears quarantine.
	packWeighted(t, path, 300)
	if err := s.Registry().Reload("g"); err != nil {
		t.Fatalf("recovery reload: %v", err)
	}
	code, epoch3, d1, _ := queryTargets(t, ts, "g")
	if code != http.StatusOK || epoch3 <= epoch1 || d1 != 300 {
		t.Fatalf("after recovery: code=%d epoch=%d d1=%v, want 200/>%d/300", code, epoch3, d1, epoch1)
	}
	if got := s.Registry().Counters().Quarantined; got != 0 {
		t.Fatalf("quarantined after recovery = %d, want 0", got)
	}
}

// TestDegradedStartupAndReadyz: a failing spec registers quarantined
// while a good one serves; /readyz reports degraded with per-graph
// states; queries against the failed graph answer 503 with the cause,
// against the good one 200.
func TestDegradedStartupAndReadyz(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	packWeighted(t, good, 100)
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("RSSNAP01 but then garbage"), 0o644); err != nil {
		t.Fatalf("write bad snapshot: %v", err)
	}
	_, ts := newLifecycleServer(t, Config{},
		GraphConfig{Name: "good", Snapshot: good},
		GraphConfig{Name: "bad", Snapshot: bad})

	var body map[string]any
	if code := getJSON(t, ts, "/readyz", &body); code != http.StatusOK {
		t.Fatalf("degraded readyz: status %d, want 200 (one graph serves)", code)
	}
	if body["status"] != "degraded" {
		t.Fatalf("readyz status %v, want degraded", body["status"])
	}
	per, _ := body["perGraph"].(map[string]any)
	if per["good"] != GraphReady || per["bad"] != GraphFailed {
		t.Fatalf("perGraph = %v, want good=ready bad=failed", per)
	}

	if code, _, d1, _ := queryTargets(t, ts, "good"); code != http.StatusOK || d1 != 100 {
		t.Fatalf("good graph: code=%d d1=%v", code, d1)
	}
	code, _, _, _ := queryTargets(t, ts, "bad")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed graph: code=%d, want 503", code)
	}
}

// TestReadyzAllFailed: graphs registered but none serving is a 503 —
// the daemon is not worth routing to.
func TestReadyzAllFailed(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, ts := newLifecycleServer(t, Config{}, GraphConfig{Name: "bad", Snapshot: bad})
	var body map[string]any
	if code := getJSON(t, ts, "/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with zero serving: %d, want 503", code)
	}
	if body["status"] != "unavailable" {
		t.Fatalf("status %v, want unavailable", body["status"])
	}
}

// TestReadyzDuringBuild: readers never wait on a build. While a reload
// of a serving graph and an admin load of a new one are both held at
// the snapshot-load seam, /readyz, /v1/graphs, /v1/stats and /metrics
// each send their whole body within a second, the reloading graph reads
// ready at its old epoch, and the graph still building is absent and
// answers 404 at once. Releasing the builds publishes the next epoch
// and the new graph.
func TestReadyzDuringBuild(t *testing.T) {
	dir := t.TempDir()
	path, path2 := filepath.Join(dir, "g.snap"), filepath.Join(dir, "h.snap")
	packWeighted(t, path, 100)
	packWeighted(t, path2, 100)
	s, ts := newLifecycleServer(t, Config{}, GraphConfig{Name: "g", Snapshot: path})
	admin := httptest.NewServer(s.AdminHandler())
	t.Cleanup(admin.Close)
	_, epoch1, _, _ := queryTargets(t, ts, "g")

	gate := make(chan struct{})
	fault.Inject(fault.SiteSnapshotLoad, fault.Plan{Gate: gate})
	t.Cleanup(fault.Clear)
	// Cleanups run last-in first-out: the gate opens before the servers
	// close, which waits for the held requests.
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	held := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for fault.Fired(fault.SiteSnapshotLoad) < n {
			if time.Now().After(deadline) {
				t.Fatalf("build %d never reached the snapshot-load seam", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	reloaded := make(chan error, 1)
	go func() { reloaded <- s.Registry().Reload("g") }()
	held(1)

	// The client's timeout covers reading the body, so a handler that
	// sends its headers and then blocks fails here too.
	client := &http.Client{Timeout: time.Second}
	get := func(path string) (string, bool) {
		t.Helper()
		r, err := client.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s while a build is held: no response: %v", path, err)
			return "", false
		}
		defer r.Body.Close()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("GET %s while a build is held: body stalled: %v", path, err)
			return "", false
		}
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s while a build is held: status %d: %s", path, r.StatusCode, body)
			return "", false
		}
		return string(body), true
	}
	health := func() map[string]GraphHealth {
		t.Helper()
		body, ok := get("/v1/graphs")
		if !ok {
			return nil
		}
		var resp struct {
			Health []GraphHealth `json:"health"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("graphs body %q: %v", body, err)
		}
		out := make(map[string]GraphHealth)
		for _, h := range resp.Health {
			out[h.Name] = h
		}
		return out
	}

	ready, ok := get("/readyz")
	if ok && !strings.Contains(ready, `"status":"ready"`) {
		t.Errorf("readyz during a reload: %s, want ready", ready)
	}
	if h := health(); h != nil && (h["g"].State != GraphReady || h["g"].Epoch != epoch1) {
		t.Errorf("graphs during a reload: g = %+v, want ready at epoch %d", h["g"], epoch1)
	}
	get("/v1/stats")
	if body, ok := get("/metrics"); ok && !strings.Contains(body, "\nsssp_graphs_serving 1\n") {
		t.Errorf("metrics during a reload lack sssp_graphs_serving 1")
	}

	loaded := make(chan error, 1)
	go func() {
		r, err := admin.Client().Post(admin.URL+"/v1/admin/load", "application/json",
			strings.NewReader(fmt.Sprintf(`{"spec":"h=snapshot=%s"}`, path2)))
		if err == nil {
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", r.StatusCode)
			}
		}
		loaded <- err
	}()
	held(2)
	if h := health(); h != nil {
		if _, ok := h["h"]; ok {
			t.Errorf("graphs list h while its first build is held: %+v", h["h"])
		}
	}
	r, err := client.Post(ts.URL+"/v1/distances", "application/json", strings.NewReader(`{"graph":"h","source":0}`))
	if err != nil {
		t.Errorf("query for a graph still building: no response: %v", err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("query for a graph still building: status %d, want 404", r.StatusCode)
		}
	}
	if after, ok := get("/readyz"); ok && after != ready {
		t.Errorf("readyz while a new graph builds: %s, want %s", after, ready)
	}

	release()
	if err := <-reloaded; err != nil {
		t.Fatalf("held reload: %v", err)
	}
	if err := <-loaded; err != nil {
		t.Fatalf("held admin load: %v", err)
	}
	if code, epoch2, d1, _ := queryTargets(t, ts, "g"); code != http.StatusOK || epoch2 <= epoch1 || d1 != 100 {
		t.Fatalf("after the reload: code=%d epoch=%d d1=%v, want 200/>%d/100", code, epoch2, d1, epoch1)
	}
	if code, _, d1, _ := queryTargets(t, ts, "h"); code != http.StatusOK || d1 != 100 {
		t.Fatalf("loaded graph: code=%d d1=%v, want 200/100", code, d1)
	}
}

// TestWatcherReloadsOnMtimeAndBacksOffOnFailure drives probeAll ticks
// synchronously: a fresher source mtime triggers a reload; a breaking
// file quarantines; subsequent ticks within the backoff window skip the
// rebuild (bounded probe rate), and a fixed file recovers on the next
// due probe.
func TestWatcherReloadsOnMtimeAndBacksOffOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)
	reg := NewRegistry()
	if err := reg.LoadConfig(GraphConfig{Name: "g", Snapshot: path}); err != nil {
		t.Fatalf("load: %v", err)
	}
	const interval = 50 * time.Millisecond

	// Unchanged mtime: a tick must not reload.
	reg.probeAll(interval).Wait()
	if c := reg.Counters(); c.Reloads != 0 {
		t.Fatalf("tick with unchanged mtime reloaded (%d)", c.Reloads)
	}

	// Fresher mtime: reload fires. Chtimes avoids mtime-granularity flakes.
	packWeighted(t, path, 200)
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatalf("chtimes: %v", err)
	}
	reg.probeAll(interval).Wait()
	if c := reg.Counters(); c.Reloads != 1 {
		t.Fatalf("reloads after mtime bump = %d, want 1", c.Reloads)
	}

	// Break the file with a newer mtime: the next tick fails and
	// quarantines...
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatalf("break file: %v", err)
	}
	future = future.Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatalf("chtimes: %v", err)
	}
	reg.probeAll(interval).Wait()
	if c := reg.Counters(); c.LoadFailures != 1 {
		t.Fatalf("loadFailures after broken tick = %d, want 1", c.LoadFailures)
	}
	// ...and an immediate second tick is inside the backoff window: no
	// second rebuild attempt.
	reg.probeAll(interval).Wait()
	if c := reg.Counters(); c.LoadFailures != 1 {
		t.Fatalf("backoff did not hold: loadFailures = %d, want still 1", c.LoadFailures)
	}
	// The old epoch still serves throughout quarantine.
	if _, err := reg.Acquire("g"); err != nil {
		t.Fatalf("quarantined graph stopped serving its old epoch: %v", err)
	}

	// Fix the file and wait out the backoff (1 interval after 1 failure):
	// the next due tick recovers.
	packWeighted(t, path, 300)
	future = future.Add(time.Hour)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatalf("chtimes: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counters().Reloads < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never recovered the fixed file")
		}
		reg.probeAll(interval).Wait()
		time.Sleep(interval / 2)
	}
	if got := reg.Counters().Quarantined; got != 0 {
		t.Fatalf("quarantined after recovery = %d, want 0", got)
	}
}

// TestWatcherSkipsAHeldBuild: while one graph's build holds its lock,
// the watcher still reloads another graph whose file changed, whether
// the held build is the watcher's own reload or an admin reload.
func TestWatcherSkipsAHeldBuild(t *testing.T) {
	for _, leg := range []string{"watcher", "admin"} {
		t.Run(leg, func(t *testing.T) {
			dir := t.TempDir()
			paths := map[string]string{"a": filepath.Join(dir, "a.snap"), "b": filepath.Join(dir, "b.snap")}
			reg := NewRegistry()
			for name, path := range paths {
				packWeighted(t, path, 100)
				if err := reg.LoadConfig(GraphConfig{Name: name, Snapshot: path}); err != nil {
					t.Fatalf("load %s: %v", name, err)
				}
			}
			touch := func(name string) {
				t.Helper()
				future := time.Now().Add(time.Hour)
				if err := os.Chtimes(paths[name], future, future); err != nil {
					t.Fatalf("chtimes: %v", err)
				}
			}
			epoch := func(name string) uint64 {
				t.Helper()
				e, err := reg.Acquire(name)
				if err != nil {
					t.Fatalf("acquire %s: %v", name, err)
				}
				return e.Epoch
			}

			// The first reload to check the seam, a's, holds a's lock
			// until the gate opens.
			fault.Clear()
			t.Cleanup(fault.Clear)
			gate := make(chan struct{})
			fault.Inject(fault.SiteReload, fault.Plan{Gate: gate, Limit: 1})
			epochA := epoch("a")
			adminDone := make(chan error, 1)
			if leg == "admin" {
				go func() { adminDone <- reg.Reload("a") }()
			} else {
				touch("a")
			}
			ctx, cancel := context.WithCancel(context.Background())
			watchDone := make(chan struct{})
			go func() {
				defer close(watchDone)
				reg.Watch(ctx, 20*time.Millisecond)
			}()
			defer func() {
				cancel()
				<-watchDone
			}()
			// Runs before the deferred stop above, which a failing check
			// would otherwise leave waiting on a held reload.
			openGate := sync.OnceFunc(func() { close(gate) })
			defer openGate()
			flightWait(t, "a's reload held", func() bool { return fault.Fired(fault.SiteReload) == 1 })
			// Let the watcher tick while a's build is held, as it would in
			// a daemon, before b's file changes.
			time.Sleep(100 * time.Millisecond)

			epochB := epoch("b")
			touch("b")
			start := time.Now()
			flightWait(t, "b's next epoch", func() bool { return epoch("b") > epochB })
			if waited := time.Since(start); waited > time.Second || epoch("a") != epochA {
				t.Fatalf("b reloaded %v after its file changed, want within 1 s; a's epoch went %d → %d while its reload was held",
					waited, epochA, epoch("a"))
			}

			openGate()
			if leg == "admin" {
				if err := <-adminDone; err != nil {
					t.Fatalf("admin reload of a: %v", err)
				}
			}
			flightWait(t, "a's reload after the gate opens", func() bool { return epoch("a") > epochA })
		})
	}
}

// --- admin surface ---------------------------------------------------------

func adminDo(t *testing.T, ts *httptest.Server, method, path, token string, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	r, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	return r.StatusCode, string(raw)
}

// TestAdminTokenGate: without a configured token the admin routes do
// not exist on the query port at all; with one, requests need the exact
// bearer token.
func TestAdminTokenGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)

	// No token configured: the routes are absent (404), not just denied.
	_, tsNo := newLifecycleServer(t, Config{}, GraphConfig{Name: "g", Snapshot: path})
	if code, _ := adminDo(t, tsNo, "POST", "/v1/admin/reload", "", `{"graph":"g"}`); code != http.StatusNotFound {
		t.Fatalf("admin route without token config: %d, want 404", code)
	}

	s, ts := newLifecycleServer(t, Config{AdminToken: "sekret"}, GraphConfig{Name: "g", Snapshot: path})
	for _, token := range []string{"", "wrong"} {
		if code, _ := adminDo(t, ts, "POST", "/v1/admin/reload", token, `{"graph":"g"}`); code != http.StatusForbidden {
			t.Fatalf("token %q: %d, want 403", token, code)
		}
	}
	if c := s.Registry().Counters(); c.Reloads != 0 {
		t.Fatal("unauthorized request reached the registry")
	}
	if code, body := adminDo(t, ts, "POST", "/v1/admin/reload", "sekret", `{"graph":"g"}`); code != http.StatusOK {
		t.Fatalf("authorized reload: %d (%s)", code, body)
	}
	if c := s.Registry().Counters(); c.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", c.Reloads)
	}
}

// TestAdminHandlerLifecycle exercises the private-listener surface end
// to end: reload (200 / 404 / 422-quarantine), load (200 / 409 / 400 /
// 422 leaving nothing registered), and remove (200 / 404).
func TestAdminHandlerLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	packWeighted(t, path, 100)
	s, _ := newLifecycleServer(t, Config{}, GraphConfig{Name: "g", Snapshot: path})
	admin := httptest.NewServer(s.AdminHandler())
	t.Cleanup(admin.Close)

	if code, body := adminDo(t, admin, "POST", "/v1/admin/reload", "", `{"graph":"g"}`); code != http.StatusOK {
		t.Fatalf("reload: %d (%s)", code, body)
	}
	if code, _ := adminDo(t, admin, "POST", "/v1/admin/reload", "", `{"graph":"nope"}`); code != http.StatusNotFound {
		t.Fatalf("reload unknown: %d, want 404", code)
	}

	// A reload failure answers 422 and reports the quarantine.
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:100], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	code, body := adminDo(t, admin, "POST", "/v1/admin/reload", "", `{"graph":"g"}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, GraphQuarantined) {
		t.Fatalf("reload of broken file: %d (%s), want 422 + quarantined health", code, body)
	}
	packWeighted(t, path, 100) // restore

	// Load a second graph by spec string; duplicates conflict.
	p2 := filepath.Join(dir, "h.snap")
	packWeighted(t, p2, 100)
	spec := fmt.Sprintf(`{"spec":"h=snapshot=%s"}`, p2)
	if code, body := adminDo(t, admin, "POST", "/v1/admin/load", "", spec); code != http.StatusOK {
		t.Fatalf("load: %d (%s)", code, body)
	}
	if _, err := s.Registry().Acquire("h"); err != nil {
		t.Fatalf("loaded graph not serving: %v", err)
	}
	if code, _ := adminDo(t, admin, "POST", "/v1/admin/load", "", spec); code != http.StatusConflict {
		t.Fatalf("duplicate load: %d, want 409", code)
	}
	// The spec is the only body: structured fields are unknown keys.
	for _, body := range []string{
		`{"spec":"x=snapshot=/nope","name":"x"}`,
		fmt.Sprintf(`{"name":"x","snapshot":%q}`, p2),
		`{}`,
	} {
		if code, _ := adminDo(t, admin, "POST", "/v1/admin/load", "", body); code != http.StatusBadRequest {
			t.Fatalf("load %s: %d, want 400", body, code)
		}
	}
	if _, err := s.Registry().Acquire("x"); !errors.Is(err, ErrGraphUnknown) {
		t.Fatalf("a rejected load body registered a graph: %v", err)
	}
	// A spec that fails to build answers 422 with the error and registers
	// nothing: readiness and health read as before, and a corrected load
	// may take the name.
	_, ready := adminDo(t, admin, "GET", "/readyz", "", "")
	_, graphs := adminDo(t, admin, "GET", "/v1/graphs", "", "")
	if code, body := adminDo(t, admin, "POST", "/v1/admin/load", "", `{"spec":"x=gen=er,n=-5"}`); code != http.StatusUnprocessableEntity || !strings.Contains(body, "needs n in") {
		t.Fatalf("load of a spec that fails to build: %d (%s), want 422 with the error", code, body)
	}
	if _, after := adminDo(t, admin, "GET", "/readyz", "", ""); after != ready {
		t.Fatalf("readyz after a failed load: %s, want %s", after, ready)
	}
	if _, after := adminDo(t, admin, "GET", "/v1/graphs", "", ""); after != graphs {
		t.Fatalf("graphs after a failed load: %s, want %s", after, graphs)
	}
	if code, body := adminDo(t, admin, "POST", "/v1/admin/load", "", fmt.Sprintf(`{"spec":"x=snapshot=%s"}`, p2)); code != http.StatusOK {
		t.Fatalf("corrected load under the failed name: %d (%s), want 200", code, body)
	}

	if code, _ := adminDo(t, admin, "DELETE", "/v1/admin/graphs/h", "", ""); code != http.StatusOK {
		t.Fatalf("remove: %d", code)
	}
	if _, err := s.Registry().Acquire("h"); !errors.Is(err, ErrGraphUnknown) {
		t.Fatalf("removed graph still serving: %v", err)
	}
	if code, _ := adminDo(t, admin, "DELETE", "/v1/admin/graphs/h", "", ""); code != http.StatusNotFound {
		t.Fatalf("double remove: %d, want 404", code)
	}
}

// TestAdminLoadRejectedConcurrently races admin loads of one name whose
// spec cannot build against queries and health reads of that name:
// every load fails, with the build error or as a duplicate, nothing
// stays registered, and the name is then free.
func TestAdminLoadRejectedConcurrently(t *testing.T) {
	reg := NewRegistry()
	bad := GraphConfig{Name: "x", Gen: "er", N: -5}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := reg.load(bad, false); err == nil {
				t.Error("a spec that cannot build loaded")
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := reg.Acquire("x"); err == nil {
				t.Error("acquired a graph that never built")
			}
			reg.Health()
		}()
	}
	wg.Wait()
	if h := reg.Health(); len(h) != 0 {
		t.Fatalf("%d graphs registered after rejected loads, want 0", len(h))
	}
	if err := reg.load(GraphConfig{Name: "x", Gen: "grid2d", N: 100}, false); err != nil {
		t.Fatalf("load after the rejected ones: %v", err)
	}
}

// TestChaosReloadUnderLoad extends the chaos suite to the reload seam:
// faults injected at SiteReload while clients hammer the graph. Old
// epochs must keep serving byte-identical answers, the quarantine
// counters must fire, and nothing may leak.
func TestChaosReloadUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	fault.Clear()
	t.Cleanup(fault.Clear)

	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)
	s, ts := newLifecycleServer(t, Config{CacheBytes: 0, Workers: 4}, GraphConfig{Name: "g", Snapshot: path})

	// No-fault baseline for a fixed query. The comparison key excludes
	// the epoch field: successful reloads of the SAME file bump the
	// epoch but must reproduce identical distances, so any distance
	// divergence is a real stale/torn answer.
	get := func() (int, string) {
		r, err := ts.Client().Post(ts.URL+"/v1/distances", "application/json",
			strings.NewReader(`{"graph":"g","source":0,"targets":[1,2,143]}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer r.Body.Close()
		var resp distancesResponse
		if derr := json.NewDecoder(r.Body).Decode(&resp); derr != nil {
			return r.StatusCode, "decode error: " + derr.Error()
		}
		return r.StatusCode, fmt.Sprint(resp.Targets)
	}
	code, baseline := get()
	if code != http.StatusOK {
		t.Fatalf("baseline: %d", code)
	}

	fault.Inject(fault.SiteReload, fault.Plan{Err: errors.New("reload sabotaged"), Limit: 3})

	var stop atomic.Bool
	var wg sync.WaitGroup
	var served, diverged atomic.Int64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				code, body := get()
				if code == http.StatusOK {
					served.Add(1)
					if body != baseline {
						diverged.Add(1)
					}
				} else {
					// Reload faults must never fail queries: the old epoch
					// serves throughout.
					t.Errorf("query failed during sabotaged reloads: %d (%s)", code, body)
				}
			}
		}()
	}
	var sawFailure bool
	for i := 0; i < 5; i++ {
		if err := s.Registry().Reload("g"); err != nil {
			sawFailure = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if !sawFailure {
		t.Fatal("injected reload fault never fired")
	}
	if fault.Fired(fault.SiteReload) == 0 {
		t.Fatal("SiteReload never checked")
	}
	if served.Load() == 0 {
		t.Fatal("no queries served during the drill")
	}
	if d := diverged.Load(); d != 0 {
		t.Fatalf("%d responses diverged from baseline (epoch field aside, distances must be identical)", d)
	}
	if c := s.Registry().Counters(); c.LoadFailures != 3 {
		t.Fatalf("loadFailures = %d, want exactly the fault limit 3", c.LoadFailures)
	}
	// The limit exhausted: reloads 4 and 5 succeeded (same file, new
	// epochs), clearing quarantine.
	if c := s.Registry().Counters(); c.Reloads < 1 {
		t.Fatalf("reloads = %d, want >= 1 after the fault limit", c.Reloads)
	}
	if got := s.Registry().Counters().Quarantined; got != 0 {
		t.Fatalf("quarantined = %d, want 0 after recovery", got)
	}

	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReloadSameFileKeepsDistances pins the assumption the chaos drill
// leans on: reloading an unchanged file yields a new epoch with
// identical distances.
func TestReloadSameFileKeepsDistances(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	packWeighted(t, path, 100)
	s, ts := newLifecycleServer(t, Config{}, GraphConfig{Name: "g", Snapshot: path})
	_, e1, d1a, d2a := queryTargets(t, ts, "g")
	if err := s.Registry().Reload("g"); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	_, e2, d1b, d2b := queryTargets(t, ts, "g")
	if e2 <= e1 || d1a != d1b || d2a != d2b {
		t.Fatalf("same-file reload: epochs %d->%d, distances (%v,%v)->(%v,%v)", e1, e2, d1a, d2a, d1b, d2b)
	}
}
