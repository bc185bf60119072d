package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	rs "radiusstep"
)

// testEngines are the engine= values the cross-engine tests serve one
// graph spec under, one graph per engine, named after its engine.
var testEngines = []string{"seq", "par", "flat", "delta", "rho"}

// serveEngines serves spec once per engine in testEngines, each copy
// named after its engine, and returns the server with its HTTP instance
// and the Dijkstra oracle, the served graph's input.
func serveEngines(t testing.TB, cfg Config, spec GraphConfig) (*Server, *httptest.Server, *rs.Graph) {
	t.Helper()
	specs := make([]GraphConfig, len(testEngines))
	for i, eng := range testEngines {
		specs[i] = spec
		specs[i].Name, specs[i].Engine = eng, eng
	}
	s, ts := newLifecycleServer(t, cfg, specs...)
	var g *rs.Graph
	for _, eng := range testEngines {
		e, err := s.Registry().Acquire(eng)
		if err != nil {
			t.Fatalf("graph %q did not load: %v", eng, err)
		}
		g = e.Solver.Preprocessed().Original
	}
	return s, ts, g
}

// namelessBody cuts the "graph" and "epoch" fields out of a distances
// or route body. Copies of one spec under different engines answer with
// the same bytes apart from their names and epochs (the registry
// numbers epochs across graphs).
var namelessBody = regexp.MustCompile(`^\{"graph":"[^"]*"|,"epoch":[0-9]+`)

// postRaw sends body to path and returns the status and the raw body.
func postRaw(t testing.TB, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	r, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer r.Body.Close()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return r.StatusCode, string(raw)
}

// TestEngineOverride serves the test grid under every engine= value
// and sends each copy one distances query: every answer matches
// Dijkstra, the bodies are identical across engines apart from the
// graph's name and epoch, and /v1/stats counts one solve under each
// engine's name, so each graph's spec picked the engine that ran. A
// leftover ?engine= is ignored like any unknown parameter.
func TestEngineOverride(t *testing.T) {
	_, ts, g := serveEngines(t, Config{}, testGrid) // no cache: every request solves
	const src = 3
	want := rs.Dijkstra(g, src)
	var distBody string
	for _, eng := range testEngines {
		code, body := postRaw(t, ts, "/v1/distances", fmt.Sprintf(`{"graph":%q,"source":%d}`, eng, src))
		var resp distancesResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil || code != http.StatusOK {
			t.Fatalf("%s distances: status %d, err %v: %s", eng, code, err, body)
		}
		if len(resp.Distances) != len(want) {
			t.Fatalf("%s: %d distances, want %d", eng, len(resp.Distances), len(want))
		}
		for v, wd := range want {
			if math.IsInf(wd, 1) {
				wd = -1
			}
			if resp.Distances[v] != wd {
				t.Fatalf("%s: dist[%d] = %v, want %v", eng, v, resp.Distances[v], wd)
			}
		}
		body = namelessBody.ReplaceAllString(body, "")
		if eng == testEngines[0] {
			distBody = body
		} else if body != distBody {
			t.Fatalf("%s: distances body differs from %s's apart from graph and epoch", eng, testEngines[0])
		}
	}
	if code, body := postRaw(t, ts, "/v1/distances?engine=bogus", `{"graph":"seq","source":3}`); code != http.StatusOK ||
		namelessBody.ReplaceAllString(body, "") != distBody {
		t.Fatalf("?engine=bogus: status %d: %s", code, body)
	}
	snap := fetchStats(t, ts)
	if got := snap.SolvesByEngine["sequential"]; got != 2 {
		t.Fatalf("solvesByEngine[sequential] = %d after ?engine=bogus on the seq graph, want 2", got)
	}
	for _, eng := range testEngines[1:] {
		e, err := rs.ParseEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		if snap.SolvesByEngine[e.String()] != 1 {
			t.Fatalf("solvesByEngine[%s] = %d, want 1 (full map: %v)", e, snap.SolvesByEngine[e.String()], snap.SolvesByEngine)
		}
	}
	if snap.Solves != int64(len(testEngines))+1 {
		t.Fatalf("solves = %d, want %d", snap.Solves, len(testEngines)+1)
	}
}

// TestRouteEngineOverride serves the test grid under every engine=
// value and sends each copy one route query: every route is a real
// path of Dijkstra's length, and the bodies are identical across
// engines apart from the graph's name and epoch. A leftover ?engine=
// on /v1/route is ignored: the seq graph answers it with the same body.
func TestRouteEngineOverride(t *testing.T) {
	_, ts, g := serveEngines(t, Config{}, testGrid) // no cache: every request solves
	const src, dst = 3, 396
	want := rs.Dijkstra(g, src)[dst]
	var routeBody string
	for _, eng := range testEngines {
		code, body := postRaw(t, ts, "/v1/route", fmt.Sprintf(`{"graph":%q,"source":%d,"target":%d}`, eng, src, dst))
		var route routeResponse
		if err := json.Unmarshal([]byte(body), &route); err != nil || code != http.StatusOK {
			t.Fatalf("%s route: status %d, err %v: %s", eng, code, err, body)
		}
		if route.Hops == 0 {
			t.Fatalf("%s: degenerate route: %+v", eng, route)
		}
		verts := make([]rs.Vertex, len(route.Path))
		for i, v := range route.Path {
			verts[i] = rs.Vertex(v)
		}
		if length, err := rs.PathLength(g, verts); err != nil || route.Distance != want || length != want {
			t.Fatalf("%s route: distance %v, path length %v (err %v), want %v", eng, route.Distance, length, err, want)
		}
		body = namelessBody.ReplaceAllString(body, "")
		if eng == testEngines[0] {
			routeBody = body
		} else if body != routeBody {
			t.Fatalf("%s: route body differs from %s's apart from graph and epoch", eng, testEngines[0])
		}
	}
	if code, body := postRaw(t, ts, "/v1/route?engine=parallel", fmt.Sprintf(`{"graph":"seq","source":%d,"target":%d}`, src, dst)); code != http.StatusOK ||
		namelessBody.ReplaceAllString(body, "") != routeBody {
		t.Fatalf("?engine=parallel: status %d: %s", code, body)
	}
	if snap := fetchStats(t, ts); snap.RouteSolves != int64(len(testEngines))+1 {
		t.Fatalf("routeSolves = %d, want %d", snap.RouteSolves, len(testEngines)+1)
	}
}

// TestGraphSpecDelta: engine=delta serves with the bucket width the
// solver derives from the graph; there is no delta= key to set one.
func TestGraphSpecDelta(t *testing.T) {
	if _, err := ParseGraphSpec("g=gen=road,n=500,delta=2.5,engine=delta"); err == nil || !strings.Contains(err.Error(), `unknown key "delta"`) {
		t.Fatalf("delta= key: err = %v, want unknown key", err)
	}
	cfg, err := ParseGraphSpec("g=gen=road,n=500,engine=delta")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != "delta" {
		t.Fatalf("parsed spec: %+v", cfg)
	}
	entry, err := BuildEntry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Info.Engine != "delta" {
		t.Fatalf("entry engine: %q", entry.Info.Engine)
	}
	if _, _, err := entry.Solver.Distances(0); err != nil {
		t.Fatalf("delta-engine solve: %v", err)
	}
}
