// Command ssspd is the shortest-path query daemon: it loads one or more
// named graphs at startup, preprocesses each into a radius-stepping
// solver, and serves HTTP/JSON queries with request coalescing, a
// bounded solve pool, and a source-keyed distance cache.
//
// Graph sources: gen=FAMILY generates in-process; file=PATH ingests any
// auto-detected format (native text, DIMACS ".gr", headerless edge
// list, snapshot); snapshot=PATH loads a cmd/graphpack snapshot whose
// persisted radii skip preprocessing entirely — the fast cold-start
// path for production restarts.
//
// Each graph's stepping engine comes from its engine= spec key
// (auto|seq|par|flat|delta|rho, default auto; delta derives its Δ
// bucket width from the graph), and every query on the graph runs on
// it; /v1/stats reports solve counts per engine.
//
// Goal-directed routing: the landmarks=K spec key builds K ALT landmark
// vectors at load time, and every /v1/route solve on that graph is
// goal-directed (pruned) by them. A served graph's landmark set is the
// one its spec built (or its snapshot carried) and never changes while
// that epoch serves.
//
// Observability: GET /metrics serves Prometheus text (per-engine solve
// latency histograms, per-endpoint request/error counters, cache, pool
// and Go runtime health); ?trace=1 on /v1/distances returns the solve's
// step/substep timeline inline in the JSON response; -pprof ADDR serves
// net/http/pprof on a separate mux; -log-requests emits structured
// per-request and per-solve logs via log/slog.
//
// Graph lifecycle: every -graph spec loads concurrently and
// independently — a spec that fails validation (torn snapshot, bad
// checksum, build error) is quarantined and logged while the rest come
// up, so one broken file degrades the daemon instead of killing it
// (the process exits nonzero only if ALL graphs fail). /readyz reports
// "degraded" with per-graph states while any graph is down. At
// runtime, POST /v1/admin/reload atomically swaps a graph to a freshly
// built epoch — in-flight queries finish on the old epoch, new queries
// see the new one, and a failed reload quarantines while the old epoch
// keeps serving. /readyz, /v1/graphs, /v1/stats and /metrics answer
// while a graph builds; a graph appears in them once its first build
// ends. The admin surface (reload, load, DELETE) listens on
// -admin-addr (private, unauthenticated) and/or mounts on the query
// port guarded by -admin-token. A spec loaded through the admin API
// that fails to build answers 422 and leaves nothing registered.
// -watch polls file-backed sources and reloads on mtime change,
// re-probing quarantined graphs with exponential backoff. A graph is
// always ready, quarantined or failed: the only way one enters is its
// spec, and the only way its epoch changes is a rebuild of that spec.
//
// Request lifecycle: every solve-backed request runs under the
// -solve-timeout deadline (clients may shorten it per request with
// ?timeout_ms=, never extend; expiry is a 504). The solve pool sheds
// load with 503 + Retry-After once -max-queue requests are already
// waiting, and a client disconnect aborts its solve through the
// engines' cooperative cancel probes unless other coalesced waiters
// still want the result. /healthz is pure liveness (always 200);
// /readyz is the routing gate — 503 while loading at startup and while
// draining at shutdown, which waits up to -shutdown-grace for in-flight
// solves before aborting the stragglers.
//
// Configuration: daemon settings come from flags alone, and every graph
// from a -graph spec: a name, "=", and the radiusstep.ParseGraphSpec
// grammar that sssp, graphpack and graphgen take too
// (server.ParseGraphSpec). POST /v1/admin/load takes the same form as
// {"spec": "..."}.
//
// Examples:
//
//	ssspd -graph road=gen=road,n=200000,weights=10000,rho=64 -listen :8517
//	ssspd -graph ny=snapshot=ny.snap -cache-mb 512     # no preprocessing
//	ssspd -graph g=file=USA-road-d.NY.gr,rho=64 -workers 8
//	ssspd -selftest -selftest-queries 5000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"radiusstep/internal/server"
)

// multiFlag collects repeated -graph flags.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint(*m) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func main() {
	var graphSpecs multiFlag
	flag.Var(&graphSpecs, "graph", "load a graph: name=gen=road,n=50000,rho=64,engine=auto | name=file=PATH | name=snapshot=PATH (repeatable)")
	listen := flag.String("listen", ":8517", "HTTP listen address")
	workers := flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	cacheMB := flag.Int64("cache-mb", 256, "distance-cache budget in MiB (0 disables)")
	selftest := flag.Bool("selftest", false, "run an in-process load smoke test and exit")
	selftestQueries := flag.Int("selftest-queries", 2000, "queries fired by -selftest")
	selftestClients := flag.Int("selftest-clients", 16, "concurrent clients used by -selftest")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	logRequests := flag.Bool("log-requests", false, "emit a structured log line per request and per solve")
	solveTimeout := flag.Duration("solve-timeout", server.DefaultSolveTimeout, "per-request solve deadline; ?timeout_ms= may shorten it per request, never extend (0 disables)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long shutdown waits for in-flight solves before aborting them")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a solve slot before shedding with 503 (0 = 8 per worker)")
	adminAddr := flag.String("admin-addr", "", "serve the unauthenticated admin API (reload/load/remove) on this private address; empty disables")
	adminToken := flag.String("admin-token", "", "mount the admin API on the query port, guarded by this bearer token; empty keeps it off")
	watch := flag.Duration("watch", 0, "poll file-backed graph sources at this interval and hot-reload on change; quarantined graphs re-probe with backoff (0 disables)")
	flag.Parse()

	if len(graphSpecs) == 0 {
		if !*selftest {
			fail("need at least one -graph spec (try: -graph demo=gen=road,n=50000)")
		}
		// A sensible default workload so `ssspd -selftest` works bare.
		graphSpecs = multiFlag{"demo=gen=road,n=50000,weights=10000,rho=64"}
	}
	var cfgs []server.GraphConfig
	for _, spec := range graphSpecs {
		cfg, err := server.ParseGraphSpec(spec)
		if err != nil {
			fail("%v", err)
		}
		cfgs = append(cfgs, cfg)
	}

	reg := server.NewRegistry()
	// Graphs load concurrently and independently: one broken spec
	// quarantines (visible in /readyz and /v1/graphs) while the others
	// come up. Duplicate names are caught by LoadConfig's registration,
	// which runs before the build, so the race between two same-named
	// specs resolves to exactly one registered graph plus one error.
	loadGraphs := func() (loaded int) {
		var wg sync.WaitGroup
		var ok atomic.Int64
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(cfg server.GraphConfig) {
				defer wg.Done()
				t0 := time.Now()
				if err := reg.LoadConfig(cfg); err != nil {
					log.Printf("graph %q failed to load (quarantined): %v", cfg.Name, err)
					return
				}
				ok.Add(1)
				// The admin listener is already up: a DELETE may have
				// removed the graph since it loaded.
				if entry, err := reg.Acquire(cfg.Name); err == nil {
					log.Printf("graph %q ready: n=%d m=%d rho=%d k=%d +%d shortcuts radii=%s source=%s (%v)",
						entry.Name, entry.Info.Vertices, entry.Info.Edges, entry.Info.Rho,
						entry.Info.K, entry.Info.ShortcutsAdded, entry.Info.RadiiSource,
						entry.Info.Source, time.Since(t0).Round(time.Millisecond))
				}
			}(cfg)
		}
		wg.Wait()
		return int(ok.Load())
	}

	var reqLogger *slog.Logger
	if *logRequests {
		reqLogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	effTimeout := *solveTimeout
	if effTimeout <= 0 {
		effTimeout = -1 // Config: < 0 disables the deadline
	}
	srv := server.New(reg, server.Config{
		Workers:      *workers,
		CacheBytes:   *cacheMB << 20,
		Logger:       reqLogger,
		SolveTimeout: effTimeout,
		QueueDepth:   *maxQueue,
		AdminToken:   *adminToken,
	})

	if *selftest {
		// The smoke test queries every configured graph; a partial load
		// would fail it confusingly later, so be strict here.
		if loaded := loadGraphs(); loaded < len(cfgs) {
			fail("selftest: %d of %d graphs failed to load", len(cfgs)-loaded, len(cfgs))
		}
		report, err := server.LoadSmoke(srv, server.SmokeConfig{
			Queries: *selftestQueries,
			Clients: *selftestClients,
		})
		if err != nil {
			fail("selftest: %v", err)
		}
		fmt.Println(report)
		if report.Failures > 0 {
			os.Exit(1)
		}
		return
	}

	// pprof lives on its own mux and (usually loopback) address, never
	// the query listener: profiling endpoints expose heap contents and
	// must not ride on a port that may be reachable by clients.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil && err != http.ErrServerClosed {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	// The listener comes up before the (possibly long) graph
	// preprocessing so orchestrators can watch /readyz flip from 503
	// "loading" to 200 instead of retrying a dead port; /healthz is 200
	// the whole time.
	srv.SetReady(false)
	httpSrv := &http.Server{
		Addr:         *listen,
		Handler:      srv.Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 5 * time.Minute, // full distance vectors can be large
	}
	go func() {
		log.Printf("ssspd listening on %s (loading %d graphs)", *listen, len(cfgs))
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()

	// The admin API gets its own (normally loopback) listener so graph
	// mutation never rides on a client-reachable port unless the operator
	// opted into -admin-token.
	if *adminAddr != "" {
		adminSrv := &http.Server{
			Addr:         *adminAddr,
			Handler:      srv.AdminHandler(),
			ReadTimeout:  30 * time.Second,
			WriteTimeout: 5 * time.Minute, // reload blocks while the new epoch builds
		}
		go func() {
			log.Printf("admin API listening on %s", *adminAddr)
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("admin serve: %v", err)
			}
		}()
	}

	loaded := loadGraphs()
	switch {
	case loaded == 0:
		// Nothing can serve: dying loudly beats squatting on the port
		// answering 503s until someone notices.
		fail("all %d graphs failed to load", len(cfgs))
	case loaded < len(cfgs):
		log.Printf("degraded: %d of %d graphs failed to load; serving the rest (see /readyz and /v1/graphs)",
			len(cfgs)-loaded, len(cfgs))
	}
	srv.SetReady(true)
	log.Printf("ready: %d graphs serving", len(reg.List()))

	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	if *watch > 0 {
		log.Printf("watching file-backed graph sources every %v", *watch)
		go reg.Watch(watchCtx, *watch)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Graceful shutdown: flip /readyz to draining so load balancers
	// stop routing here, stop accepting connections, wait out in-flight
	// solves under the grace budget, then abort stragglers through the
	// cooperative cancel probes.
	log.Printf("shutting down: draining (grace %v)", *shutdownGrace)
	srv.BeginDrain()
	graceCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- httpSrv.Shutdown(graceCtx) }()
	if err := srv.Drain(graceCtx); err != nil {
		log.Printf("drain grace expired; aborting in-flight solves")
		srv.Abort()
		finalCtx, fcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer fcancel()
		_ = srv.Drain(finalCtx)
	}
	<-shutdownErr
	log.Printf("shutdown complete")
}
