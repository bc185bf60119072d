package core

import (
	"math"
	"testing"
	"unsafe"

	"radiusstep/internal/baseline"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
)

// TestAdaptiveRhoReducesSteps pins the adaptive quota's step economics:
// on a graph large enough that a fixed ρ = 32 would crumble the solve
// into at least n/32 steps, the adaptive rule must (1) finish in at most
// n/(2ρ) steps, (2) report its growth events in Stats.QuotaAdjustments,
// and (3) keep the distance vector byte-identical to Dijkstra's —
// exactness never depends on the quota.
func TestAdaptiveRhoReducesSteps(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(120, 120), 1, 100, 5)
	src := graph.V(0)
	const rho = 32

	adaptive, st, err := SolveKind(g, nil, src, KindRho, Params{Rho: rho}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.QuotaAdjustments == 0 {
		t.Fatal("adaptive-ρ solve reported 0 quota adjustments; the rule never fired")
	}
	if limit := g.NumVertices() / (2 * rho); st.Steps > limit {
		t.Fatalf("adaptive ρ took %d steps, want at most n/(2ρ) = %d", st.Steps, limit)
	}
	want := baseline.Dijkstra(g, src)
	for v := range adaptive {
		if math.Float64bits(adaptive[v]) != math.Float64bits(want[v]) {
			t.Fatalf("dist[%d] = %v adaptive vs %v dijkstra; adaptation changed distances",
				v, adaptive[v], want[v])
		}
	}
	t.Logf("adaptive ρ=32: %d steps, %d quota adjustments", st.Steps, st.QuotaAdjustments)
}

// TestAdaptiveRhoDeterministic: the adaptive rule is a pure function of
// the solve's own step history, so re-running the same query (including
// through a reused workspace) must reproduce the same step count and
// adjustment count.
func TestAdaptiveRhoDeterministic(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(60, 60), 1, 50, 9)
	ws := NewWorkspace()
	_, st1, err := SolveKind(g, nil, 0, KindRho, Params{Rho: 16}, ws)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := SolveKind(g, nil, 0, KindRho, Params{Rho: 16}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Steps != st2.Steps || st1.QuotaAdjustments != st2.QuotaAdjustments {
		t.Fatalf("re-solve diverged: steps %d vs %d, adjustments %d vs %d",
			st1.Steps, st2.Steps, st1.QuotaAdjustments, st2.QuotaAdjustments)
	}
}

// TestWorkerBufPadded asserts the per-worker relax buffers cannot
// false-share: each buffer header must occupy a full cache line.
func TestWorkerBufPadded(t *testing.T) {
	if s := unsafe.Sizeof(workerBuf{}); s%64 != 0 {
		t.Fatalf("workerBuf is %d bytes, want a multiple of 64", s)
	}
}
