package bench

import (
	"fmt"
	"io"
	"sort"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/core"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
	"radiusstep/internal/preprocess"
	"radiusstep/internal/trace"
)

// AblationK studies the substep structure as k varies (the design choice
// §5.4 discusses): larger k means fewer shortcut edges but more substeps
// per step, bounded by k+2 (Theorem 3.2). One table per heuristic on the
// road workload.
func AblationK(w io.Writer, sc Scale) error {
	wl := ShortcutWorkloads(sc)[0]
	g := wl.Weighted
	rho := sc.RhosCut[0]
	for _, h := range []preprocess.Heuristic{preprocess.Greedy, preprocess.DP} {
		t := &Table{
			Caption: fmt.Sprintf("Ablation — substeps vs k on %s weighted (rho=%d, heuristic=%s)", wl.Name, rho, h),
			Header:  []string{"k", "added", "mean substeps/step", "max substeps", "k+2 bound"},
		}
		for _, k := range sc.Ks {
			pre, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: k, Heuristic: h})
			if err != nil {
				return err
			}
			var meanSub float64
			maxSub := 0
			for _, src := range wl.Sources {
				_, st, err := core.SolveKind(pre.G, pre.Radii, src, core.KindSequential, core.Params{}, nil)
				if err != nil {
					return err
				}
				meanSub += float64(st.Substeps) / float64(st.Steps)
				if st.MaxSubsteps > maxSub {
					maxSub = st.MaxSubsteps
				}
			}
			meanSub /= float64(len(wl.Sources))
			t.Add(fi(int64(k)), fi(pre.Added), f2(meanSub), fi(int64(maxSub)), fi(int64(k+2)))
		}
		t.Render(w)
	}
	return nil
}

// AblationDelta compares radius-stepping against ∆-stepping across a ∆
// sweep on one weighted workload: rounds (steps), total inner iterations
// (substeps), and arcs scanned, which unlike successful relaxations do
// not depend on thread interleaving. Radius-stepping's per-vertex radii
// replace the global ∆ the baseline must tune.
func AblationDelta(w io.Writer, sc Scale) error {
	wl := Workloads(sc)[0]
	g := wl.Weighted
	src := wl.Sources[0]
	L := g.MaxWeight()
	t := &Table{
		Caption: fmt.Sprintf("Ablation — delta-stepping vs radius-stepping on %s weighted (n=%d, L=%g)",
			wl.Name, g.NumVertices(), L),
		Header: []string{"algorithm", "param", "steps", "substeps", "edges scanned"},
	}
	want := baseline.Dijkstra(g, src)
	for _, delta := range []float64{L / 100, L / 10, L, 10 * L} {
		dist, st := baseline.DeltaStepping(g, src, delta)
		if i := check.SameDistances(want, dist, 0); i >= 0 {
			return fmt.Errorf("delta-stepping wrong at %d", i)
		}
		t.Add("delta-stepping", fmt.Sprintf("d=%.0f", delta),
			fi(int64(st.Steps)), fi(int64(st.Substeps)), fi(st.EdgesScanned))
	}
	for _, rho := range sc.RhosCut {
		pre, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
		if err != nil {
			return err
		}
		dist, st, err := core.SolveKind(pre.G, pre.Radii, src, core.KindSequential, core.Params{}, nil)
		if err != nil {
			return err
		}
		if i := check.SameDistances(want, dist, 0); i >= 0 {
			return fmt.Errorf("radius-stepping wrong at %d", i)
		}
		t.Add("radius-stepping", fmt.Sprintf("rho=%d", rho),
			fi(int64(st.Steps)), fi(int64(st.Substeps)), fi(st.EdgesScanned))
	}
	t.Render(w)
	return nil
}

// AblationEngines cross-checks the five engine kinds on one workload:
// identical distances everywhere and identical step/substep counts on
// the three radius-stepping kinds, with their work counters side by
// side. This is the design-validation run for the engine equivalence
// the tests assert.
func AblationEngines(w io.Writer, sc Scale) error {
	wl := Workloads(sc)[2] // a web graph: skewed degrees stress the engines
	g := wl.Weighted
	src := wl.Sources[0]
	rho := sc.RhosCut[len(sc.RhosCut)-1]
	pre, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
	if err != nil {
		return err
	}
	t := &Table{
		Caption: fmt.Sprintf("Ablation — engine cross-check on %s weighted (rho=%d)", wl.Name, rho),
		Header:  []string{"engine", "steps", "substeps", "edges scanned", "relaxations", "frontier p/b/m/x/st/sel"},
	}
	labels := map[core.EngineKind]string{
		core.KindSequential: "ref (sequential)",
		core.KindParallel:   "frontier (Algorithm 2)",
		core.KindFlat:       "flat (sec. 3.4)",
		core.KindDelta:      "delta-stepping",
		core.KindRho:        "rho-stepping",
	}
	var ref []float64
	var refSteps int
	for kind := core.KindSequential; kind <= core.KindRho; kind++ {
		// Δ-stepping derives its bucket width from the graph; ρ-stepping
		// starts from the preprocessing ρ as its quota. Both ignore the
		// radii.
		dist, st, err := core.SolveKind(pre.G, pre.Radii, src, kind, core.Params{Rho: rho}, nil)
		if err != nil {
			return err
		}
		name := labels[kind]
		if kind == core.KindSequential {
			ref = dist
			refSteps = st.Steps
		} else {
			if idx := check.SameDistances(ref, dist, 0); idx >= 0 {
				return fmt.Errorf("engine %s distance mismatch at %d", name, idx)
			}
			// The radius-free strategies match on distances only: their
			// step rules are different algorithms, so step counts differ.
			if kind <= core.KindFlat && st.Steps != refSteps {
				return fmt.Errorf("engine %s step mismatch: %d vs %d", name, st.Steps, refSteps)
			}
		}
		// Frontier-substrate ops (pushes/batches/merges/extracted/stale/
		// selects) are nonzero only for the engines built on
		// internal/frontier.
		frOps := "-"
		if st.Frontier.Pushes > 0 {
			frOps = fmt.Sprintf("%d/%d/%d/%d/%d/%d",
				st.Frontier.Pushes, st.Frontier.Batches, st.Frontier.Merges,
				st.Frontier.Extracted, st.Frontier.Stale, st.Frontier.Selects)
		}
		t.Add(name, fi(int64(st.Steps)), fi(int64(st.Substeps)), fi(st.EdgesScanned), fi(st.Relaxations), frOps)
	}
	t.Render(w)
	return nil
}

// AblationModels extends the step-vs-ρ experiment to graph families the
// paper does not test — R-MAT (skewed, web-like) and Watts–Strogatz
// small-world (lattice with long-range links) — checking that the
// inverse-ρ round reduction generalizes beyond the six paper workloads.
func AblationModels(w io.Writer, sc Scale) error {
	type model struct {
		name string
		g    *graph.CSR
	}
	scaleDown := sc.Name == "tiny"
	rmatScale, rmatM, swN := 14, 120000, 20000
	if scaleDown {
		rmatScale, rmatM, swN = 10, 8000, 2000
	}
	models := []model{
		{"rmat", largest(gen.RMATDefault(rmatScale, rmatM, 51))},
		{"smallworld", gen.SmallWorld(swN, 6, 0.05, 52)},
	}
	for _, m := range models {
		g := gen.WithUniformIntWeights(m.g, 1, 10000, 53)
		sources := SampleSources(g.NumVertices(), sc.Sources, 54)
		t := &Table{
			Caption: fmt.Sprintf("Ablation — rounds vs rho on %s weighted (n=%d, m=%d)",
				m.name, g.NumVertices(), g.NumEdges()),
			Header: []string{"rho", "mean rounds", "reduction"},
		}
		var base float64
		for _, rho := range sc.Rhos {
			pre, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
			if err != nil {
				return err
			}
			stats := make([]core.Stats, len(sources))
			errs := make([]error, len(sources))
			parallel.Workers(len(sources), func(_ int, claim func() (int, bool)) {
				for {
					i, ok := claim()
					if !ok {
						return
					}
					_, st, err := core.SolveKind(pre.G, pre.Radii, sources[i], core.KindSequential, core.Params{}, nil)
					stats[i], errs[i] = st, err
				}
			})
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			var mean float64
			for _, st := range stats {
				mean += float64(st.Steps)
			}
			mean /= float64(len(stats))
			if rho == 1 {
				base = mean
			}
			red := "1.00"
			if base > 0 && mean > 0 {
				red = f2(base / mean)
			}
			t.Add(fi(int64(rho)), f1(mean), red)
		}
		t.Render(w)
	}
	return nil
}

func largest(g *graph.CSR) *graph.CSR {
	lc, _ := graph.LargestComponent(g)
	return lc
}

// AblationParallelism profiles the work each step exposes: with P
// processors a step settling s vertices gives roughly min(s, P)-way
// speedup, so the distribution of per-step settled counts (not just the
// mean n/steps) determines the practical parallelism P = W/D. The table
// shows how ρ moves that distribution upward on one road and one web
// workload.
func AblationParallelism(w io.Writer, sc Scale) error {
	for _, wi := range []int{0, 3} { // road-a, web-b
		wl := Workloads(sc)[wi]
		g := wl.Weighted
		src := wl.Sources[0]
		t := &Table{
			Caption: fmt.Sprintf("Ablation — per-step parallelism on %s weighted (n=%d)",
				wl.Name, g.NumVertices()),
			Header: []string{"rho", "steps", "settled/step mean", "median", "p90", "max", "substeps/step"},
		}
		for _, rho := range sc.Rhos {
			if rho == 1 {
				continue
			}
			pre, err := preprocess.Run(g, preprocess.Options{Rho: rho, K: 1})
			if err != nil {
				return err
			}
			tl, _, err := traceRef(pre.G, pre.Radii, src)
			if err != nil {
				return err
			}
			s := Summarize(tl)
			t.Add(fi(int64(rho)), fi(int64(s.Steps)), f1(s.MeanSettled),
				fi(int64(s.MedianSettled)), fi(int64(s.P90)), fi(int64(s.MaxSettled)), f2(s.MeanSubsteps))
		}
		t.Render(w)
	}
	return nil
}

// Summary condenses a solve's per-step settled counts into the order
// statistics AblationParallelism reports.
type Summary struct {
	Steps         int
	TotalSettled  int
	MeanSettled   float64
	MedianSettled int
	MaxSettled    int
	P10, P90      int     // 10th/90th percentile of per-step settled counts
	MeanSubsteps  float64 // mean substeps per step
}

// Summarize computes order statistics of a timeline's per-step settled
// counts — the work each step exposes, the quantity behind the paper's
// parallelism argument P = W/D.
func Summarize(tl *trace.Timeline) Summary {
	var s Summary
	s.Steps = len(tl.StepList)
	if s.Steps == 0 {
		return s
	}
	sorted := make([]int, 0, s.Steps)
	sub := 0
	for _, st := range tl.StepList {
		sorted = append(sorted, st.Settled)
		sub += st.Substeps
	}
	sort.Ints(sorted)
	for _, v := range sorted {
		s.TotalSettled += v
		if v > s.MaxSettled {
			s.MaxSettled = v
		}
	}
	s.MeanSettled = float64(s.TotalSettled) / float64(s.Steps)
	s.MedianSettled = sorted[s.Steps/2]
	s.P10 = sorted[s.Steps/10]
	s.P90 = sorted[s.Steps*9/10]
	s.MeanSubsteps = float64(sub) / float64(s.Steps)
	return s
}
