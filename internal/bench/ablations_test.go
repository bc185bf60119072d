package bench

import (
	"testing"

	"radiusstep/internal/trace"
)

// timelineOf builds a timeline holding only per-step settled and
// substep counts, the fields Summarize reads.
func timelineOf(settled, substeps []int) *trace.Timeline {
	tl := &trace.Timeline{}
	for i := range settled {
		tl.StepList = append(tl.StepList, trace.StepRecord{Step: i + 1, Settled: settled[i], Substeps: substeps[i]})
	}
	return tl
}

func TestSummaryOrderStatistics(t *testing.T) {
	s := Summarize(timelineOf(
		[]int{1, 9, 5, 3, 7, 2, 8, 4, 6, 10},
		[]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	))
	if s.Steps != 10 || s.TotalSettled != 55 {
		t.Fatalf("basic sums wrong: %+v", s)
	}
	if s.MeanSettled != 5.5 || s.MaxSettled != 10 {
		t.Fatalf("mean/max wrong: %+v", s)
	}
	if s.MedianSettled != 6 { // sorted[5]
		t.Fatalf("median = %d", s.MedianSettled)
	}
	if s.P10 != 2 || s.P90 != 10 { // sorted[1], sorted[9]
		t.Fatalf("percentiles = %d, %d", s.P10, s.P90)
	}
	if s.MeanSubsteps != 2 {
		t.Fatalf("substeps mean = %v", s.MeanSubsteps)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := Summarize(&trace.Timeline{})
	if s.Steps != 0 || s.MeanSettled != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}
