package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"
)

// SmokeConfig tunes LoadSmoke.
type SmokeConfig struct {
	Queries int // total requests (default 2000)
	Clients int // concurrent clients (default 16)
}

// The LoadSmoke workload: every query asks the first registered graph
// for its smokeTopK nearest vertices (small responses), smokeColdPercent
// of them from a fresh random source and the rest from a pool of
// smokeHotSources repeated ones, drawn with seed smokeSeed.
const (
	smokeHotSources  = 8
	smokeColdPercent = 30
	smokeTopK        = 8
	smokeSeed        = 1
)

// SmokeReport summarizes one LoadSmoke run.
type SmokeReport struct {
	Graph    string        `json:"graph"`
	Queries  int           `json:"queries"`
	Clients  int           `json:"clients"`
	Failures int           `json:"failures"`
	Elapsed  time.Duration `json:"-"`
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"-"`
	P90      time.Duration `json:"-"`
	P99      time.Duration `json:"-"`
	Max      time.Duration `json:"-"`
	Stats    StatsSnapshot `json:"stats"`
}

// String renders the report for the CLI.
func (r SmokeReport) String() string {
	return fmt.Sprintf(
		"selftest graph=%s queries=%d clients=%d failures=%d\n"+
			"  throughput %.0f qps in %v\n"+
			"  latency p50=%v p90=%v p99=%v max=%v\n"+
			"  solves=%d coalesced=%d cache hits=%d misses=%d evictions=%d",
		r.Graph, r.Queries, r.Clients, r.Failures,
		r.QPS, r.Elapsed.Round(time.Millisecond),
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
		r.Stats.Solves, r.Stats.Coalesced,
		r.Stats.Cache.Hits, r.Stats.Cache.Misses, r.Stats.Cache.Evictions)
}

// LoadSmoke fires a burst of mixed cached/uncached /v1/distances queries
// at an in-process HTTP instance of s and reports latency percentiles,
// so serving-path regressions show up without external tooling. Hot
// sources repeat (exercising the cache and coalescing paths); cold
// sources are fresh (exercising the solve pool).
func LoadSmoke(s *Server, cfg SmokeConfig) (SmokeReport, error) {
	entries := s.registry.List()
	if len(entries) == 0 {
		return SmokeReport{}, fmt.Errorf("server: selftest needs at least one graph")
	}
	e := entries[0]
	if cfg.Queries <= 0 {
		cfg.Queries = 2000
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 16
	}
	n := e.numVertices()
	if n == 0 {
		return SmokeReport{}, fmt.Errorf("server: selftest: graph %q is empty", e.Name)
	}

	// Pre-plan the workload so worker goroutines share no RNG.
	rng := rand.New(rand.NewSource(smokeSeed))
	hot := make([]int64, smokeHotSources)
	for i := range hot {
		hot[i] = int64(rng.Intn(n))
	}
	sources := make([]int64, cfg.Queries)
	for i := range sources {
		if rng.Intn(100) < smokeColdPercent {
			sources[i] = int64(rng.Intn(n))
		} else {
			sources[i] = hot[rng.Intn(len(hot))]
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	latencies := make([]time.Duration, cfg.Queries)
	failures := make([]bool, cfg.Queries)
	var next int64
	var mu sync.Mutex
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(cfg.Queries) {
			return 0, false
		}
		i := next
		next++
		return int(i), true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				body, _ := json.Marshal(distancesRequest{Graph: e.Name, Source: sources[i], TopK: smokeTopK})
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/distances", "application/json", bytes.NewReader(body))
				latencies[i] = time.Since(t0)
				if err != nil {
					failures[i] = true
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures[i] = true
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	nfail := 0
	for _, f := range failures {
		if f {
			nfail++
		}
	}
	report := SmokeReport{
		Graph:    e.Name,
		Queries:  cfg.Queries,
		Clients:  cfg.Clients,
		Failures: nfail,
		Elapsed:  elapsed,
		QPS:      float64(cfg.Queries) / elapsed.Seconds(),
		P50:      pct(0.50),
		P90:      pct(0.90),
		P99:      pct(0.99),
		Max:      sorted[len(sorted)-1],
	}
	report.Stats = s.statsSnapshot()
	return report, nil
}
