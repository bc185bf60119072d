package core

import (
	"testing"

	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
	"radiusstep/internal/preprocess"
	"radiusstep/internal/trace"
)

// tracedSteps runs the reference engine with a trace recorder attached
// and returns the timeline's per-step records with the solve's stats.
func tracedSteps(t *testing.T, g *graph.CSR, radii []float64, src graph.V) ([]trace.StepRecord, Stats) {
	t.Helper()
	rec := NewTraceRecorder()
	_, st, err := SolveKind(g, radii, src, KindSequential, Params{Recorder: rec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Timeline().StepList, st
}

func TestProfileConsistentWithStats(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(20, 20), 1, 100, 1)
	radii, err := preprocess.RadiiOnly(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	steps, st := tracedSteps(t, g, radii, 0)
	if len(steps) != st.Steps {
		t.Fatalf("profile length %d, steps %d", len(steps), st.Steps)
	}
	total, subTotal := 0, 0
	for _, s := range steps {
		total += s.Settled
		subTotal += s.Substeps
	}
	if total != g.NumVertices()-1 {
		t.Fatalf("settled sum %d, want %d", total, g.NumVertices()-1)
	}
	if subTotal != st.Substeps {
		t.Fatalf("substep sum %d, want %d", subTotal, st.Substeps)
	}
}

func TestProfileParallelismGrowsWithRho(t *testing.T) {
	g := gen.WithUniformIntWeights(gen.Grid2D(30, 30), 1, 10000, 2)
	var prevMean float64
	for i, rho := range []int{2, 16, 64} {
		pre, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		steps, _ := tracedSteps(t, pre.G, pre.Radii, 0)
		total := 0
		for _, s := range steps {
			total += s.Settled
		}
		mean := float64(total) / float64(len(steps))
		if i > 0 && mean <= prevMean {
			t.Fatalf("mean settled did not grow: rho=%d gives %.1f after %.1f", rho, mean, prevMean)
		}
		prevMean = mean
	}
}
