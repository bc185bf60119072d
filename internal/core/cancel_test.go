package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
	"radiusstep/internal/preprocess"
)

func cancelTestGraph(t *testing.T) (*graph.CSR, []float64) {
	t.Helper()
	g := gen.WithUniformIntWeights(gen.Grid2D(20, 20), 1, 100, 21)
	radii, err := preprocess.RadiiOnly(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	return g, radii
}

func TestPreFiredProbeAbortsEveryEngine(t *testing.T) {
	g, radii := cancelTestGraph(t)
	causes := []struct {
		name string
		fire func(*Probe)
		want error
	}{
		{"cancel", (*Probe).Cancel, ErrCanceled},
		{"deadline", (*Probe).Expire, ErrDeadline},
	}
	for _, kind := range allKinds() {
		for _, c := range causes {
			p := new(Probe)
			c.fire(p)
			dist, st, err := SolveKind(g, radii, 0, kind, Params{Probe: p}, nil)
			if !errors.Is(err, c.want) {
				t.Fatalf("%s/%s: err = %v, want %v", kind, c.name, err, c.want)
			}
			if dist != nil {
				t.Fatalf("%s/%s: aborted solve returned distances", kind, c.name)
			}
			if st.Engine != kind.String() {
				t.Fatalf("%s/%s: stats engine = %q", kind, c.name, st.Engine)
			}
		}
	}
}

func TestProbeFirstCauseWins(t *testing.T) {
	p := new(Probe)
	p.Cancel()
	p.Expire() // latched: the later cause must not overwrite the first
	if !errors.Is(p.Err(), ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", p.Err())
	}
	if !p.Fired() {
		t.Fatal("fired probe reports live")
	}
	var nilProbe *Probe
	if nilProbe.Fired() || nilProbe.Err() != nil {
		t.Fatal("nil probe must read as live")
	}
}

func TestLiveProbeDistancesIdentical(t *testing.T) {
	// A probe that never fires must not perturb the solve: distances are
	// byte-identical to the nil-probe solve for every engine.
	g, radii := cancelTestGraph(t)
	for _, kind := range allKinds() {
		want, _, err := SolveKind(g, radii, 0, kind, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SolveKind(g, radii, 0, kind, Params{Probe: new(Probe)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i := check.SameDistances(want, got, 0); i >= 0 {
			t.Fatalf("%s: dist[%d] = %v, want %v", kind, i, got[i], want[i])
		}
	}
}

// cancelOnCall returns a Params.Bound hook that calls fire on its nth
// call. The relax kernels call the hook (concurrently on the parallel
// engines) for each vertex a target solve scans, so a far-target solve
// fires it mid-solve with the workspace genuinely dirty. The hook
// returns 0 ("no bound"), so it never prunes.
func cancelOnCall(n int64, fire func()) (func(graph.V) float64, *atomic.Int64) {
	calls := new(atomic.Int64)
	return func(graph.V) float64 {
		if calls.Add(1) == n {
			fire()
		}
		return 0
	}, calls
}

// farthest returns the vertex farthest from src, the target that keeps
// a target solve running longest.
func farthest(t *testing.T, g *graph.CSR, radii []float64, src graph.V) graph.V {
	t.Helper()
	dist, _, err := solveRef(g, radii, src)
	if err != nil {
		t.Fatal(err)
	}
	far := src
	for v, d := range dist {
		if d > dist[far] {
			far = graph.V(v)
		}
	}
	return far
}

func TestMidSolveCancelThenWorkspaceReuse(t *testing.T) {
	// Fire the probe from inside the solve so it aborts at a mid-solve
	// boundary with the workspace genuinely dirty, then reuse the same
	// pooled workspace for a clean solve: distances must be
	// byte-identical to a fresh solve, proving an aborted solve leaves no
	// residue in the pooled buffers.
	g, radii := cancelTestGraph(t)
	far := farthest(t, g, radii, 0)
	for _, kind := range allKinds() {
		ws := NewWorkspace()
		p := new(Probe)
		bound, calls := cancelOnCall(20, p.Cancel)
		_, dist, _, err := solveTarget(g, radii, 0, far, kind, Params{Probe: p, Bound: bound}, ws)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", kind, err)
		}
		if dist != nil {
			t.Fatalf("%s: canceled solve returned distances", kind)
		}
		if calls.Load() < 20 {
			t.Fatalf("%s: solve ended before the hook fired the probe", kind)
		}

		want, _, err := SolveKind(g, radii, 0, kind, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := SolveKind(g, radii, 0, kind, Params{}, ws)
		if err != nil {
			t.Fatalf("%s: reuse after cancel: %v", kind, err)
		}
		if i := check.SameDistances(want, got, 0); i >= 0 {
			t.Fatalf("%s: reused workspace dist[%d] = %v, want %v", kind, i, got[i], want[i])
		}
	}
}

func TestWorkspaceReuseResetPaths(t *testing.T) {
	// One pooled workspace per engine serves a sequence that switches
	// between prepare's two reset paths — the partial reset after a
	// small target solve, the full fill after an overflowed, canceled
	// or full solve, or a graph change — with pruning on, so a hook left
	// by an earlier target must not leak into the next. Every target
	// distance must match Dijkstra bit for bit, and every vector (a
	// target solve's partial one included) must match a fresh
	// workspace's: a stale entry left by an earlier solve would show in
	// either.
	g, radii := cancelTestGraph(t)
	h := gen.WithUniformIntWeights(gen.Grid2D(20, 20), 1, 100, 22)
	hRadii, err := preprocess.RadiiOnly(h, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Near targets lie a few steps from the corner source; each pruned
	// solve aims at a new one, so a bound kept from an earlier target
	// would be wrong for the next.
	const src = 0
	far := farthest(t, g, radii, src)
	want := baseline.Dijkstra(g, src)
	set := testLandmarks(t, g, 3)
	params := func(dst graph.V, prune bool) Params {
		if !prune {
			return Params{}
		}
		hook, _, est := set.BoundTo(src, dst)
		return Params{Bound: hook, UpperBound: est}
	}
	for _, kind := range allKinds() {
		ws := NewWorkspace()
		target := func(step string, dst graph.V, prune, wantComplete bool) {
			t.Helper()
			d, got, _, err := solveTarget(g, radii, src, dst, kind, params(dst, prune), ws)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, step, err)
			}
			if math.Float64bits(d) != math.Float64bits(want[dst]) {
				t.Fatalf("%s %s: d = %v, want %v", kind, step, d, want[dst])
			}
			_, fresh, _, err := solveTarget(g, radii, src, dst, kind, params(dst, prune), nil)
			if err != nil {
				t.Fatal(err)
			}
			if i := check.SameDistances(got, fresh, 0); i >= 0 {
				t.Fatalf("%s %s: reused workspace dist[%d] = %v, fresh %v", kind, step, i, got[i], fresh[i])
			}
			if ws.complete != wantComplete {
				t.Fatalf("%s %s: touched list complete = %v, want %v", kind, step, ws.complete, wantComplete)
			}
		}
		full := func(step string, g *graph.CSR, radii []float64) {
			t.Helper()
			got, _, err := SolveKind(g, radii, src, kind, Params{}, ws)
			if err != nil {
				t.Fatalf("%s %s: %v", kind, step, err)
			}
			fresh, _, err := SolveKind(g, radii, src, kind, Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i := check.SameDistances(got, fresh, 0); i >= 0 {
				t.Fatalf("%s %s: reused workspace dist[%d] = %v, fresh %v", kind, step, i, got[i], fresh[i])
			}
			if ws.complete {
				t.Fatalf("%s %s: a full solve stayed under the touched cap", kind, step)
			}
		}

		target("near", 21, true, true)
		target("far", far, false, false) // unpruned: explores past the cap
		target("near after overflow", 42, true, true)
		p := new(Probe)
		bound, _ := cancelOnCall(20, p.Cancel)
		if _, err := solve(g, radii, src, kind, Params{Probe: p, Bound: bound}, ws, far); !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s canceled: err = %v, want ErrCanceled", kind, err)
		}
		if ws.complete {
			t.Fatalf("%s: a canceled solve left its touched list complete", kind)
		}
		target("near after cancel", 3, true, true)
		full("full", g, radii)
		full("full on another graph", h, hRadii)
		target("near after graph change", 60, true, true)
	}
}

func TestProbeMidArcPollAborts(t *testing.T) {
	// A probe fired mid-solve must abort even when the graph is large
	// enough that a single substep spans many arc-interval polls —
	// exercises the kernels' mid-substep poll paths under -race.
	g := gen.WithUniformIntWeights(gen.RandomConnected(5000, 40000, 7), 1, 30, 9)
	radii, err := preprocess.RadiiOnly(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	far := farthest(t, g, radii, 0)
	for _, kind := range allKinds() {
		p := new(Probe)
		bound, _ := cancelOnCall(200, p.Expire)
		_, err := solve(g, radii, 0, kind, Params{Probe: p, Bound: bound}, NewWorkspace(), far)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("%s: err = %v, want ErrDeadline", kind, err)
		}
	}
}
