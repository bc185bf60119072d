package server

import (
	"context"
	"fmt"
	"io"
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
)

// GraphInfo is the registry metadata served by GET /v1/graphs.
type GraphInfo struct {
	Name      string `json:"name"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	Rho       int    `json:"rho"`
	K         int    `json:"k"`
	Heuristic string `json:"heuristic"`
	Engine    string `json:"engine"`
	// ShortcutsAdded is the number of distinct shortcut edges the served
	// graph holds: its edge count minus the input graph's. Every source
	// reports it, snapshots included. It is not Preprocessed.Added, the
	// paper's per-source count that graphpack and sssp print, which
	// counts a shortcut once from each endpoint whose ball emits it.
	ShortcutsAdded   int64   `json:"shortcutsAdded"`
	MaxWeight        float64 `json:"maxWeight"`
	PreprocessMillis int64   `json:"preprocessMillis"`
	Source           string  `json:"source"`
	// Format names the on-disk format the graph was loaded from
	// (text, dimacs, edgelist, snapshot) or "gen".
	Format string `json:"format,omitempty"`
	// RadiiSource reports whether the (k, ρ)-radii were computed at
	// startup or loaded from a snapshot (RadiiComputed,
	// RadiiFromSnapshot).
	RadiiSource string `json:"radiiSource,omitempty"`
	// Reordered reports that the snapshot was packed with a
	// cache-locality vertex relabeling (graphpack -order); queries and
	// answers are mapped between original and stored ids transparently.
	Reordered bool `json:"reordered,omitempty"`
	// SnapshotBytes is the on-disk size of the loaded snapshot.
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
// deriving the metadata from the solver's preprocessing result.
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
			ShortcutsAdded:   int64(pre.Graph.NumEdges() - g.NumEdges()),
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
// format), or Snapshot (a cmd/graphpack snapshot) must be set. The
// remaining fields tune generation and preprocessing; they are rejected
// for snapshots whose preprocessing is already persisted. Its text form
// is the ParseGraphSpec grammar, which the -graph flag and the admin
// load body both use.
type GraphConfig struct {
	Name      string
	Gen       string
	File      string
	Snapshot  string
	N         int
	Seed      uint64
	Weights   int
	Rho       int
	K         int
	Heuristic string
	Engine    string
	// Landmarks builds k ALT landmark vectors (farthest-point selection)
	// at load time, enabling goal-directed route pruning. Rejected when
	// the source is a snapshot that already carries persisted landmarks.
	Landmarks int
}

// ParseGraphSpec parses the -graph flag form
//
//	name=gen=road,n=50000,weights=10000,rho=64
//	name=file=/data/g.gr,rho=32
//	name=snapshot=/data/g.snap
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
// ready registry entry. A snapshot carrying persisted radii (through
// snapshot=, or a file= that holds one) skips preprocessing entirely
// (the registry's fast cold-start path) and the entry's Info reports
// RadiiSource; every other source is preprocessed at load. Info also
// reports the snapshot size and the total cold-start time. A panic
// anywhere in the load path (a corrupt snapshot tripping an index, an
// injected chaos fault) is contained into a clean error so one bad
// graph config cannot kill a daemon loading several.
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
	for _, s := range []string{cfg.Gen, cfg.File, cfg.Snapshot} {
		if s != "" {
			srcs++
		}
	}
	if srcs != 1 {
		return nil, fmt.Errorf("server: graph %q: exactly one of gen|file|snapshot required", cfg.Name)
	}
	if cfg.Landmarks < 0 || cfg.Landmarks > rs.MaxLandmarks {
		return nil, fmt.Errorf("server: graph %q: landmarks %d out of range [0,%d]", cfg.Name, cfg.Landmarks, rs.MaxLandmarks)
	}

	opt := rs.Options{Rho: cfg.Rho, K: cfg.K}
	if cfg.Heuristic != "" {
		h, err := rs.ParseHeuristic(cfg.Heuristic)
		if err != nil {
			return nil, err
		}
		opt.Heuristic = h
		if h == rs.HeuristicDirect && opt.K == 0 {
			opt.K = 1 // direct is the (1,ρ) construction
		}
	}
	if cfg.Engine != "" {
		e, err := rs.ParseEngine(cfg.Engine)
		if err != nil {
			return nil, err
		}
		opt.Engine = e
	}

	start := time.Now()
	var (
		g      *rs.Graph
		snap   *rs.Snapshot
		size   int64
		err    error
		source = "file:" + cfg.File
		format = "snapshot"
	)
	switch {
	case cfg.Snapshot != "":
		source = "snapshot:" + cfg.Snapshot
		snap, size, err = rs.ReadSnapshotFile(cfg.Snapshot)
	case cfg.File != "" && isSnapshotFile(cfg.File):
		// A file= holding a snapshot gets the full snapshot treatment
		// (persisted radii and all), not a silent graph-only load.
		snap, size, err = rs.ReadSnapshotFile(cfg.File)
	case cfg.File != "":
		var f rs.GraphFormat
		g, f, err = rs.LoadGraphFile(cfg.File)
		format = f.String()
	default:
		n := cfg.N
		if n == 0 {
			n = 100000
		}
		source = fmt.Sprintf("gen:%s,n=%d,seed=%d", cfg.Gen, n, cfg.Seed)
		format = "gen"
		g, err = rs.GenerateByName(cfg.Gen, n, cfg.Seed)
	}
	if err != nil {
		// %w: a snapshot's truncated/corrupt classification must
		// survive to the registry's quarantine health report.
		return nil, fmt.Errorf("server: graph %q: %w", cfg.Name, err)
	}

	var entry *Entry
	if snap != nil && snap.Radii != nil {
		// Preprocessing knobs cannot apply when its output is persisted;
		// accepting them would silently do nothing.
		if cfg.Rho != 0 || cfg.K != 0 || cfg.Heuristic != "" || cfg.Weights != 0 {
			return nil, fmt.Errorf("server: graph %q: rho/k/heuristic/weights are baked into a preprocessed snapshot", cfg.Name)
		}
		solver, err := rs.SolverFromSnapshot(snap, opt.Engine)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		entry = NewSolverEntry(cfg.Name, solver, rs.Options{Engine: opt.Engine}, source, 0)
		entry.Info.Rho, entry.Info.K, entry.Info.Heuristic = snap.Rho, snap.K, snap.Heuristic
		entry.Info.RadiiSource = RadiiFromSnapshot
	} else {
		if snap != nil {
			g = snap.G
		}
		if cfg.Weights > 0 {
			g = rs.WithUniformIntWeights(g, 1, cfg.Weights, cfg.Seed+1)
		}
		prep := time.Now()
		solver, err := rs.NewSolver(g, opt)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		entry = NewSolverEntry(cfg.Name, solver, opt.WithDefaults(), source, time.Since(prep))
	}
	entry.Info.Format = format
	if snap != nil {
		entry.Info.SnapshotBytes = size
		// A reordered snapshot's relabeling: every query path answers
		// in original ids.
		if snap.Perm != nil {
			entry.perm, entry.inv = snap.Perm, rs.InvertPerm(snap.Perm)
			entry.Info.Reordered = true
		}
	}
	// Landmarks are selected once the solver is query-ready (selection
	// solves run on the final metric). A snapshot that restored
	// persisted landmarks rejects the knob: rebuilding would silently
	// discard the packed vectors.
	solver := entry.Solver
	if cfg.Landmarks > 0 {
		if solver.Landmarks() > 0 {
			return nil, fmt.Errorf("server: graph %q: %d landmarks are baked into the snapshot; landmarks= does not apply", cfg.Name, solver.Landmarks())
		}
		if _, err := solver.BuildLandmarks(cfg.Landmarks, rs.LandmarksFarthest); err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
	}
	entry.Info.Landmarks = solver.Landmarks()
	entry.Info.ColdStartMillis = time.Since(start).Milliseconds()
	return entry, nil
}

// isSnapshotFile reports whether the file at path starts with the
// snapshot magic. An unreadable file reports false, and the graph read
// that follows reports the real error.
func isSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	prefix := make([]byte, 8)
	n, _ := io.ReadFull(f, prefix)
	return rs.DetectGraphFormat(prefix[:n]) == rs.FormatSnapshot
}
