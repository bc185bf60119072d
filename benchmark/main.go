// Command benchmark is the serving benchmark. It drives the whole stack
// in one process, through exported functions only: a DIMACS file is
// parsed, reordered, preprocessed, given landmarks, packed into a
// snapshot and loaded by the server registry, then queried over HTTP on
// a loopback listener. Four seeded workloads stress different layers.
//
// An untraced pass prints the end-to-end metrics; a traced pass prints
// the per-layer metrics, a self-time table, and writes spans. Output
// lines read "name workload value unit"; lines starting with # are
// comments; the last line is a JSON summary.
//
//	go run . -workload road-miss -seed 1 -seconds 10 -trace 0
//	go run . -seed 1 -json run1.json          # every workload, both passes
//	go run . -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// See README.md for the workloads, the metrics and how to read spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	only := flag.String("workload", "all", "workload to run ("+strings.Join(names, ", ")+"), or all")
	seed := flag.Uint64("seed", 1, "seed of the traffic: sources, targets, hot set, Zipf draws and sampled responses")
	seconds := flag.Float64("seconds", 10, "measured load time per pass, two thirds open loop and one third closed loop")
	trace := flag.String("trace", "both", "pass to run: 0 (untraced, end-to-end metrics), 1 (traced, per-layer metrics and spans) or both")
	spansPath := flag.String("spans", ".bench_build/spans.json", "file the traced passes' spans are written to")
	jsonPath := flag.String("json", "", "file every pass's results are written to, for -compare")
	cmp := flag.Bool("compare", false, "compare two sets of -json files given as arguments, each a comma-separated list")
	bounds := flag.String("bounds", "BENCHMARK.json", "benchmark description whose bounds -compare applies")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fail("usage: benchmark -compare A1.json[,A2.json...] B1.json[,B2.json...]")
		}
		s, err := readSpec(*bounds)
		if err != nil {
			fail("%v", err)
		}
		ok, err := compare(os.Stdout, s, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	if *only == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*only); ok {
		selected = []workload{w}
	} else {
		fail("unknown workload %q (want %s or all)", *only, strings.Join(names, ", "))
	}
	passes := map[string][]bool{"0": {false}, "1": {true}, "both": {false, true}}[*trace]
	if passes == nil {
		fail("-trace %q: want 0, 1 or both", *trace)
	}
	if *seconds <= 0 {
		fail("-seconds must be positive")
	}
	const workdir = ".bench_build" // scratch graphs and snapshots; ignored by git
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fail("%v", err)
	}

	e := env{seed: *seed, seconds: *seconds, procs: runtime.NumCPU(), workdir: workdir}
	hdr := header{Seed: e.seed, Seconds: e.seconds, HostProcs: e.procs, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Plans: make(map[string]string)}
	fmt.Printf("# benchmark seed=%d seconds=%g hostProcs=%d gomaxprocs=%d go=%s connections=%d workers=%d\n",
		hdr.Seed, hdr.Seconds, hdr.HostProcs, hdr.GOMAXPROCS, hdr.GoVersion, e.procs, e.procs)

	var results []*result
	type spanRun struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}
	var spanRuns []spanRun
	for _, w := range selected {
		for _, traced := range passes {
			t0 := time.Now()
			r, err := runPass(w, e, traced)
			if err != nil {
				fail("%s: %v", w.name, err)
			}
			hdr.Plans[w.name] = r.Plan
			printResult(r, time.Since(t0))
			if traced {
				printSelfTimes(os.Stdout, w.name, r.Spans)
				spanRuns = append(spanRuns, spanRun{w.name, e.seed, r.Spans})
			}
			results = append(results, r)
		}
	}
	if len(spanRuns) > 0 {
		writeJSON(*spansPath, map[string]any{"runs": spanRuns})
	}
	if *jsonPath != "" {
		writeJSON(*jsonPath, resultsFile{Header: hdr, Results: results})
	}

	// The last line: one JSON summary of every pass.
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range results {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(selected) > 1 {
				name = r.Workload + "/" + name
			}
			sum.Metrics[name] = m
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

func printResult(r *result, took time.Duration) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", name, r.Workload, m.Value, m.Unit)
	}
	if r.Pass == "untraced" {
		fmt.Printf("error_rate %s %.6g ratio\n", r.Workload, float64(r.Failed)/float64(r.Attempted))
		names = names[:0]
		for name := range r.Measured {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.Measured[name]
			fmt.Printf("# measured %s %s %.6g %s\n", name, r.Workload, m.Value, m.Unit)
		}
	}
	fmt.Printf("# %s %s: attempted=%d failed=%d valid=%t took=%.1fs\n", r.Workload, r.Pass, r.Attempted, r.Failed, r.Valid, took.Seconds())
}

func writeJSON(path string, v any) {
	raw, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fail("write %s: %v", path, err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
