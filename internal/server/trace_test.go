package server

import (
	"net/http"
	"testing"
)

// TestTraceTimelineConsistency is the acceptance test for ?trace=1: on
// the test grid served under every engine, the returned timeline must
// be internally consistent — the summary counters match the record
// lists, the per-step substep counts sum to the substep total, and the
// per-step wall times nest inside the solve's wall time.
func TestTraceTimelineConsistency(t *testing.T) {
	_, ts, g := serveEngines(t, Config{CacheBytes: 1 << 20}, testGrid)
	for _, engine := range testEngines {
		t.Run(engine, func(t *testing.T) {
			var resp distancesResponse
			code := postJSON(t, ts, "/v1/distances?trace=1",
				distancesRequest{Graph: engine, Source: 3}, &resp)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, resp.Error)
			}
			tl := resp.Trace
			if tl == nil {
				t.Fatal("no timeline in ?trace=1 response")
			}
			if tl.Engine == "" || tl.Source != 3 {
				t.Fatalf("timeline identity: engine=%q source=%d", tl.Engine, tl.Source)
			}
			if tl.Steps != len(tl.StepList) {
				t.Fatalf("Steps=%d but len(StepList)=%d", tl.Steps, len(tl.StepList))
			}
			if tl.Substeps != len(tl.SubstepList) {
				t.Fatalf("Substeps=%d but len(SubstepList)=%d", tl.Substeps, len(tl.SubstepList))
			}
			if tl.Steps == 0 || tl.Substeps == 0 || tl.Relaxations == 0 {
				t.Fatalf("empty timeline: %+v", tl)
			}
			perStep := 0
			var stepNanos int64
			for i, st := range tl.StepList {
				if st.Step != i+1 {
					t.Fatalf("step %d has index %d", i+1, st.Step)
				}
				perStep += st.Substeps
				stepNanos += st.Nanos
				if st.Nanos < st.RelaxNanos {
					t.Fatalf("step %d: Nanos=%d < RelaxNanos=%d", st.Step, st.Nanos, st.RelaxNanos)
				}
			}
			if perStep != tl.Substeps {
				t.Fatalf("per-step substep counts sum to %d, want %d", perStep, tl.Substeps)
			}
			if stepNanos <= 0 || stepNanos > tl.SolveNanos {
				t.Fatalf("step wall times sum to %d, outside (0, solve=%d]", stepNanos, tl.SolveNanos)
			}
			for _, ss := range tl.SubstepList {
				if ss.Mode != "push" && ss.Mode != "pull" {
					t.Fatalf("substep mode %q", ss.Mode)
				}
				if ss.Step < 1 || ss.Step > tl.Steps {
					t.Fatalf("substep points at step %d of %d", ss.Step, tl.Steps)
				}
			}
			// The traced solve must still answer the query correctly.
			if resp.Reached != g.NumVertices() {
				t.Fatalf("reached %d of %d vertices", resp.Reached, g.NumVertices())
			}
			if resp.Cached {
				t.Fatal("traced response claims to be cached")
			}
		})
	}
}

// TestTraceBypassesCache verifies the documented contract that traced
// solves neither read nor write the distance cache: a traced query must
// not seed the cache for a later untraced query.
func TestTraceBypassesCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheBytes: 1 << 20})
	var traced distancesResponse
	if code := postJSON(t, ts, "/v1/distances?trace=1",
		distancesRequest{Graph: "grid", Source: 9}, &traced); code != http.StatusOK {
		t.Fatalf("traced: status %d", code)
	}
	var first distancesResponse
	if code := postJSON(t, ts, "/v1/distances",
		distancesRequest{Graph: "grid", Source: 9}, &first); code != http.StatusOK {
		t.Fatalf("untraced: status %d", code)
	}
	if first.Cached {
		t.Fatal("traced solve wrote the cache: first untraced query was a hit")
	}
	var second distancesResponse
	if code := postJSON(t, ts, "/v1/distances",
		distancesRequest{Graph: "grid", Source: 9}, &second); code != http.StatusOK {
		t.Fatalf("untraced repeat: status %d", code)
	}
	if !second.Cached {
		t.Fatal("untraced solve did not write the cache")
	}
}

// TestTraceCountsAsSolve: traced solves must still show up in the
// solve metrics even though they bypass the cache.
func TestTraceCountsAsSolve(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var resp distancesResponse
	if code := postJSON(t, ts, "/v1/distances?trace=1",
		distancesRequest{Graph: "grid", Source: 1}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	snap := fetchStats(t, ts)
	if snap.Solves != 1 {
		t.Fatalf("solves = %d, want 1", snap.Solves)
	}
	if got := snap.SolvesByEngine[resp.Trace.Engine]; got != 1 {
		t.Fatalf("solvesByEngine[%s] = %d, want 1", resp.Trace.Engine, got)
	}
}
