package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// header describes the host and inputs of one invocation.
type header struct {
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	HostProcs  int               `json:"hostProcs"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"goVersion"`
	Plans      map[string]string `json:"plans"` // workload -> plan hash
}

// resultsFile is what -json writes and -compare reads.
type resultsFile struct {
	Header  header    `json:"header"`
	Results []*result `json:"results"`
}

// runSet holds the untraced values of a set of result files, per
// workload and metric, and the plan hashes they ran.
type runSet struct {
	values map[string]map[string][]float64
	plans  map[string]map[string]bool
}

func loadRunSet(list string) (*runSet, error) {
	set := &runSet{values: make(map[string]map[string][]float64), plans: make(map[string]map[string]bool)}
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Results {
			if r.Pass != "untraced" {
				continue
			}
			if set.values[r.Workload] == nil {
				set.values[r.Workload] = make(map[string][]float64)
				set.plans[r.Workload] = make(map[string]bool)
			}
			set.plans[r.Workload][r.Plan] = true
			for name, m := range r.Metrics {
				set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
			}
		}
	}
	return set, nil
}

// compare prints every end-to-end metric and workload pair of set b
// against set a, and reports whether none failed its bound. A pair whose
// run-to-run spread exceeds the bound is unresolved, unless every run of
// b reads better than every run of a.
func compare(w io.Writer, s *spec, listA, listB string) (bool, error) {
	a, err := loadRunSet(listA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(listB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-16s %-15s %12s %12s %7s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spread", "bound", "verdict")
	for _, wl := range workloads {
		if !sameKeys(a.plans[wl.name], b.plans[wl.name]) {
			fmt.Fprintf(w, "# %s: the two sets ran different inputs (plan hashes differ)\n", wl.name)
		}
		for _, m := range s.EndToEnd {
			va, vb := a.values[wl.name][m.Name], b.values[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-15s missing\n", wl.name, m.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sp := max(spread(va), spread(vb))
			verdict := "PASS"
			switch {
			case sp > m.Bound && !allBetter(va, vb, m.Better == "higher"):
				verdict = "unresolved"
			case sp <= m.Bound && worse > m.Bound:
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-15s %12.4g %12.4g %7.3f %7.3f %6.2f  %s\n", wl.name, m.Name, ma, mb, mb/ma, sp, m.Bound, verdict)
		}
	}
	return ok, nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				return false
			}
		}
	}
	return true
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
