package server

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"radiusstep/internal/fault"

	rs "radiusstep"
)

// RadiiSource values: where a graph's radii came from at load time. The
// snapshot value is the observable contract that the registry skipped
// preprocessing and reused persisted radii.
const (
	RadiiComputed     = "computed"
	RadiiFromSnapshot = "snapshot"
	RadiiFromBundle   = "bundle"
)

// GraphInfo is the registry metadata served by GET /v1/graphs.
type GraphInfo struct {
	Name             string  `json:"name"`
	Vertices         int     `json:"vertices"`
	Edges            int     `json:"edges"`
	Rho              int     `json:"rho"`
	K                int     `json:"k"`
	Heuristic        string  `json:"heuristic"`
	Engine           string  `json:"engine"`
	ShortcutsAdded   int64   `json:"shortcutsAdded"`
	MaxWeight        float64 `json:"maxWeight"`
	PreprocessMillis int64   `json:"preprocessMillis"`
	Source           string  `json:"source"`
	// Format names the on-disk format the graph was loaded from
	// (text, dimacs, edgelist, binary, snapshot) or "gen".
	Format string `json:"format,omitempty"`
	// RadiiSource reports whether the (k, ρ)-radii were computed at
	// startup or loaded from persistence (RadiiComputed, RadiiFromSnapshot,
	// RadiiFromBundle).
	RadiiSource string `json:"radiiSource,omitempty"`
	// Reordered reports that the snapshot was packed with a
	// cache-locality vertex relabeling (graphpack -order); queries and
	// answers are mapped between original and stored ids transparently.
	Reordered bool `json:"reordered,omitempty"`
	// SnapshotBytes is the on-disk size of the loaded snapshot/bundle.
	SnapshotBytes int64 `json:"snapshotBytes,omitempty"`
	// ColdStartMillis is the total load time — file read plus any
	// preprocessing — from BuildEntry start to a query-ready solver.
	ColdStartMillis int64 `json:"coldStartMillis"`
	// Landmarks is the number of ALT landmark vectors serving
	// goal-directed route pruning. handleGraphs refreshes it live from
	// the solver (cache adoption grows the set after load).
	Landmarks int `json:"landmarks,omitempty"`
}

// Entry binds a name to a query solver and its metadata. An Entry is
// one immutable epoch of a graph: the registry publishes it through an
// atomic pointer and never mutates it afterward, so a query that
// pinned an Entry computes against a consistent snapshot no matter how
// many reloads happen mid-solve. Epoch is the registry-assigned,
// process-wide monotonic version (zero only for entries never
// published through a registry).
type Entry struct {
	Name   string
	Solver *rs.Solver
	Info   GraphInfo
	Epoch  uint64

	// perm maps client (original) vertex ids to the solver's stored ids
	// and inv maps them back. Both are nil unless the graph was loaded
	// from a snapshot packed with a cache-locality relabeling
	// (graphpack -order); the helpers below keep every answer in
	// original ids, so clients never observe the relabeling.
	perm, inv []rs.Vertex
}

// numVertices is the graph's vertex count: client ids lie in [0, n).
func (e *Entry) numVertices() int { return e.Solver.Preprocessed().Graph.NumVertices() }

// storedID maps a client vertex id, already range-checked, to the
// solver's id.
func (e *Entry) storedID(v rs.Vertex) rs.Vertex {
	if e.perm == nil {
		return v
	}
	return e.perm[v]
}

// clientDistances maps a distance vector from stored to client ids. The
// O(n) copy runs once per solve; the distance cache holds its result.
func (e *Entry) clientDistances(d []float64) []float64 {
	if e.perm == nil {
		return d
	}
	return rs.UnpermuteFloats(d, e.perm)
}

// storedDistances maps a client-id distance vector (a cached one) to
// stored ids for the solver.
func (e *Entry) storedDistances(d []float64) []float64 {
	if e.perm == nil {
		return d
	}
	return rs.PermuteFloats(d, e.perm)
}

// clientPath maps a path from stored to client ids in place.
func (e *Entry) clientPath(p []rs.Vertex) []rs.Vertex {
	if e.inv != nil {
		for i, v := range p {
			p[i] = e.inv[v]
		}
	}
	return p
}

// NewSolverEntry wraps a preprocessed solver as a registry entry,
// deriving the metadata from the preprocessing bundle.
func NewSolverEntry(name string, solver *rs.Solver, opt rs.Options, source string, prepTime time.Duration) *Entry {
	pre := solver.Preprocessed()
	g := pre.Original
	if g == nil {
		g = pre.Graph
	}
	return &Entry{
		Name:   name,
		Solver: solver,
		Info: GraphInfo{
			Name:             name,
			Vertices:         g.NumVertices(),
			Edges:            g.NumEdges(),
			Rho:              opt.Rho,
			K:                opt.K,
			Heuristic:        opt.Heuristic.String(),
			Engine:           opt.Engine.String(),
			ShortcutsAdded:   pre.Added,
			MaxWeight:        g.MaxWeight(),
			PreprocessMillis: prepTime.Milliseconds(),
			Source:           source,
			RadiiSource:      RadiiComputed,
			ColdStartMillis:  prepTime.Milliseconds(),
		},
	}
}

// GraphConfig describes one graph to load: exactly one of Gen (a
// generator family name), File (a graph file in any auto-detected
// format), Snapshot (a cmd/graphpack snapshot), or Pre (a preprocessed
// bundle written by radiusstep.WritePreprocessed) must be set. The
// remaining fields tune generation and preprocessing; they are rejected
// for sources whose preprocessing is already persisted.
type GraphConfig struct {
	Name      string  `json:"name"`
	Gen       string  `json:"gen,omitempty"`
	File      string  `json:"file,omitempty"`
	Snapshot  string  `json:"snapshot,omitempty"`
	Pre       string  `json:"pre,omitempty"`
	N         int     `json:"n,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	Weights   int     `json:"weights,omitempty"`
	Rho       int     `json:"rho,omitempty"`
	K         int     `json:"k,omitempty"`
	Heuristic string  `json:"heuristic,omitempty"`
	Engine    string  `json:"engine,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	// Landmarks builds k ALT landmark vectors (farthest-point selection)
	// at load time, enabling goal-directed route pruning. Rejected when
	// the source is a snapshot that already carries persisted landmarks.
	Landmarks int `json:"landmarks,omitempty"`
}

// ParseGraphSpec parses the -graph flag form
//
//	name=gen=road,n=50000,weights=10000,rho=64
//	name=file=/data/g.gr,rho=32
//	name=snapshot=/data/g.snap
//	name=pre=/data/g.pre
//
// into a GraphConfig. Unknown keys are an error, matching the
// fail-loudly contract of ParseHeuristic/ParseEngine.
func ParseGraphSpec(spec string) (GraphConfig, error) {
	cfg := GraphConfig{Seed: 42}
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return cfg, fmt.Errorf("server: graph spec %q: want name=key=val,...", spec)
	}
	cfg.Name = name
	for _, field := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok || v == "" {
			return cfg, fmt.Errorf("server: graph spec %q: bad field %q", spec, field)
		}
		var err error
		switch k {
		case "gen":
			cfg.Gen = v
		case "file":
			cfg.File = v
		case "snapshot":
			cfg.Snapshot = v
		case "pre":
			cfg.Pre = v
		case "n":
			cfg.N, err = strconv.Atoi(v)
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "weights":
			cfg.Weights, err = strconv.Atoi(v)
		case "rho":
			cfg.Rho, err = strconv.Atoi(v)
		case "k":
			cfg.K, err = strconv.Atoi(v)
		case "heuristic":
			cfg.Heuristic = v
		case "engine":
			cfg.Engine = v
		case "delta":
			cfg.Delta, err = strconv.ParseFloat(v, 64)
		case "landmarks":
			cfg.Landmarks, err = strconv.Atoi(v)
		default:
			return cfg, fmt.Errorf("server: graph spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return cfg, fmt.Errorf("server: graph spec %q: field %q: %v", spec, field, err)
		}
	}
	return cfg, nil
}

// BuildEntry loads or generates the graph described by cfg and returns a
// ready registry entry. For gen/file sources it preprocesses at startup;
// for snapshot and bundle sources carrying persisted radii it skips
// preprocessing entirely (the registry's fast cold-start path) and the
// entry's Info reports RadiiSource, the snapshot size, and the total
// cold-start time. A panic anywhere in the load path (a corrupt
// snapshot tripping an index, an injected chaos fault) is contained
// into a clean error so one bad graph config cannot kill a daemon
// loading several.
func BuildEntry(cfg GraphConfig) (entry *Entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			entry, err = nil, fmt.Errorf("server: graph %q: load panic: %v", cfg.Name, r)
		}
	}()
	if ferr := fault.Check(context.TODO(), fault.SiteSnapshotLoad); ferr != nil {
		return nil, fmt.Errorf("server: graph %q: %w", cfg.Name, ferr)
	}
	return buildEntry(cfg)
}

func buildEntry(cfg GraphConfig) (*Entry, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: graph config needs a name")
	}
	srcs := 0
	for _, s := range []string{cfg.Gen, cfg.File, cfg.Snapshot, cfg.Pre} {
		if s != "" {
			srcs++
		}
	}
	if srcs != 1 {
		return nil, fmt.Errorf("server: graph %q: exactly one of gen|file|snapshot|pre required", cfg.Name)
	}
	// delta is a query-time knob, valid for every source — so a bad
	// value must fail on every source too, not just the ones that run
	// preprocessing (whose Options validation would catch it).
	if cfg.Delta < 0 || math.IsNaN(cfg.Delta) {
		return nil, fmt.Errorf("server: graph %q: delta %v must be >= 0 (0 derives a default)", cfg.Name, cfg.Delta)
	}
	if cfg.Landmarks < 0 || cfg.Landmarks > rs.MaxLandmarks {
		return nil, fmt.Errorf("server: graph %q: landmarks %d out of range [0,%d]", cfg.Name, cfg.Landmarks, rs.MaxLandmarks)
	}

	opt := rs.Options{Rho: cfg.Rho, K: cfg.K, Delta: cfg.Delta}
	if cfg.Heuristic != "" {
		h, err := rs.ParseHeuristic(cfg.Heuristic)
		if err != nil {
			return nil, err
		}
		opt.Heuristic = h
	}
	if cfg.Engine != "" {
		e, err := rs.ParseEngine(cfg.Engine)
		if err != nil {
			return nil, err
		}
		opt.Engine = e
	}

	start := time.Now()
	switch {
	case cfg.Pre != "":
		// The bundle was preprocessed elsewhere: rho/k/heuristic are
		// baked in and unknown here, so accepting them would silently
		// do nothing while /v1/graphs echoed them back as truth.
		if cfg.Rho != 0 || cfg.K != 0 || cfg.Heuristic != "" || cfg.Weights != 0 {
			return nil, fmt.Errorf("server: graph %q: rho/k/heuristic/weights do not apply to a preprocessed bundle", cfg.Name)
		}
		f, ferr := os.Open(cfg.Pre)
		if ferr != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, ferr)
		}
		defer f.Close()
		st, _ := f.Stat()
		pre, perr := rs.ReadPreprocessed(f)
		if perr != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, perr)
		}
		solver, err := rs.NewSolverPre(pre, opt.Engine)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		if cfg.Delta > 0 {
			solver.SetDelta(cfg.Delta)
		}
		// A bundle does not record its preprocessing parameters; report
		// them as unknown (zero) rather than inventing defaults.
		entry := NewSolverEntry(cfg.Name, solver, rs.Options{Engine: opt.Engine}, "pre:"+cfg.Pre, 0)
		entry.Info.Rho, entry.Info.K, entry.Info.Heuristic = 0, 0, ""
		entry.Info.Format = "pre"
		entry.Info.RadiiSource = RadiiFromBundle
		if st != nil {
			entry.Info.SnapshotBytes = st.Size()
		}
		if err := applyLandmarks(entry, solver, cfg); err != nil {
			return nil, err
		}
		entry.Info.ColdStartMillis = time.Since(start).Milliseconds()
		return entry, nil

	case cfg.Snapshot != "":
		snap, size, err := rs.ReadSnapshotFile(cfg.Snapshot)
		if err != nil {
			// %w: the truncated/corrupt classification must survive to
			// the registry's quarantine health report.
			return nil, fmt.Errorf("server: graph %q: %w", cfg.Name, err)
		}
		return buildFromSnapshot(cfg, opt, snap, size, "snapshot:"+cfg.Snapshot, start)

	case cfg.File != "":
		f, ferr := os.Open(cfg.File)
		if ferr != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, ferr)
		}
		defer f.Close()
		br := bufio.NewReaderSize(f, 1<<20)
		// A file= pointing at a snapshot gets the full snapshot treatment
		// (persisted radii and all), not a silent graph-only load. The
		// magic fits in 8 bytes; a short or unreadable prefix simply
		// falls through to ReadGraphAuto, which reports the real error.
		prefix, _ := br.Peek(8)
		if rs.DetectGraphFormat(prefix) == rs.FormatSnapshot {
			snap, size, serr := rs.ReadSnapshotFile(cfg.File)
			if serr != nil {
				return nil, fmt.Errorf("server: graph %q: %w", cfg.Name, serr)
			}
			return buildFromSnapshot(cfg, opt, snap, size, "file:"+cfg.File, start)
		}
		g, format, gerr := rs.ReadGraphAuto(br)
		if gerr != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, gerr)
		}
		if cfg.Weights > 0 {
			g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
		}
		prep := time.Now()
		solver, err := rs.NewSolver(g, opt)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		entry := NewSolverEntry(cfg.Name, solver, opt.WithDefaults(), "file:"+cfg.File, time.Since(prep))
		entry.Info.Format = format.String()
		if err := applyLandmarks(entry, solver, cfg); err != nil {
			return nil, err
		}
		entry.Info.ColdStartMillis = time.Since(start).Milliseconds()
		return entry, nil

	default:
		n := cfg.N
		if n == 0 {
			n = 100000
		}
		g, gerr := rs.GenerateByName(cfg.Gen, n, cfg.Seed)
		if gerr != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, gerr)
		}
		if cfg.Weights > 0 {
			g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
		}
		prep := time.Now()
		solver, err := rs.NewSolver(g, opt)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		source := fmt.Sprintf("gen:%s,n=%d,seed=%d", cfg.Gen, n, cfg.Seed)
		entry := NewSolverEntry(cfg.Name, solver, opt.WithDefaults(), source, time.Since(prep))
		entry.Info.Format = "gen"
		if err := applyLandmarks(entry, solver, cfg); err != nil {
			return nil, err
		}
		entry.Info.ColdStartMillis = time.Since(start).Milliseconds()
		return entry, nil
	}
}

// buildFromSnapshot turns a loaded snapshot into a registry entry. When
// the snapshot carries radii, preprocessing is skipped entirely: the
// persisted radii (and augmented graph) go straight into a solver, and
// the entry reports RadiiFromSnapshot. A graph-only snapshot (no radii)
// is preprocessed like any other loaded graph.
func buildFromSnapshot(cfg GraphConfig, opt rs.Options, snap *rs.Snapshot, size int64, source string, start time.Time) (*Entry, error) {
	if snap.Radii != nil {
		// Preprocessing knobs cannot apply when its output is persisted;
		// accepting them would silently do nothing.
		if cfg.Rho != 0 || cfg.K != 0 || cfg.Heuristic != "" || cfg.Weights != 0 {
			return nil, fmt.Errorf("server: graph %q: rho/k/heuristic/weights are baked into a preprocessed snapshot", cfg.Name)
		}
		solver, err := rs.SolverFromSnapshot(snap, opt.Engine)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		if cfg.Delta > 0 {
			solver.SetDelta(cfg.Delta)
		}
		entry := NewSolverEntry(cfg.Name, solver, rs.Options{Engine: opt.Engine}, source, 0)
		entry.Info.Rho, entry.Info.K, entry.Info.Heuristic = snap.Rho, snap.K, snap.Heuristic
		entry.Info.Format = "snapshot"
		entry.Info.RadiiSource = RadiiFromSnapshot
		entry.Info.SnapshotBytes = size
		applySnapshotPerm(entry, snap)
		if err := applyLandmarks(entry, solver, cfg); err != nil {
			return nil, err
		}
		entry.Info.ColdStartMillis = time.Since(start).Milliseconds()
		return entry, nil
	}
	g := snap.G
	if cfg.Weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
	}
	prep := time.Now()
	solver, err := rs.NewSolver(g, opt)
	if err != nil {
		return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
	}
	entry := NewSolverEntry(cfg.Name, solver, opt.WithDefaults(), source, time.Since(prep))
	entry.Info.Format = "snapshot"
	entry.Info.SnapshotBytes = size
	applySnapshotPerm(entry, snap)
	if err := applyLandmarks(entry, solver, cfg); err != nil {
		return nil, err
	}
	entry.Info.ColdStartMillis = time.Since(start).Milliseconds()
	return entry, nil
}

// applyLandmarks builds the configured landmark set once the solver is
// query-ready (selection solves run on the final metric) and records
// the live count in the entry metadata. A snapshot that already
// restored persisted landmarks rejects the knob — rebuilding would
// silently discard the packed vectors.
func applyLandmarks(entry *Entry, solver *rs.Solver, cfg GraphConfig) error {
	if cfg.Landmarks > 0 {
		if solver.Landmarks() > 0 {
			return fmt.Errorf("server: graph %q: %d landmarks are baked into the snapshot; landmarks= does not apply", cfg.Name, solver.Landmarks())
		}
		if _, err := solver.BuildLandmarks(cfg.Landmarks, rs.LandmarksFarthest); err != nil {
			return fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
	}
	entry.Info.Landmarks = solver.Landmarks()
	return nil
}

// applySnapshotPerm records a reordered snapshot's relabeling on its
// entry, so every query path answers in original ids.
func applySnapshotPerm(entry *Entry, snap *rs.Snapshot) {
	if snap.Perm == nil {
		return
	}
	entry.perm, entry.inv = snap.Perm, rs.InvertPerm(snap.Perm)
	entry.Info.Reordered = true
}
