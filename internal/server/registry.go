package server

import (
	"context"
	"fmt"
	"io"
	"os"
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
	// goal-directed route pruning, fixed when the entry is built.
	Landmarks int `json:"landmarks,omitempty"`
}

// Entry binds a name to a query solver and its metadata. An Entry is
// one immutable epoch of a graph, built from its spec by BuildEntry:
// the registry publishes it through an atomic pointer and never
// mutates it afterward — its solver, landmark set and Info included —
// so a query that pinned an Entry computes against a consistent
// snapshot no matter how many reloads happen mid-solve. Epoch is the
// registry-assigned, process-wide monotonic version (zero only for
// entries never published through a registry).
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

// newSolverEntry wraps a preprocessed solver as a registry entry,
// deriving the metadata from the solver's preprocessing result and opt.
func newSolverEntry(name string, solver *rs.Solver, opt rs.Options, source string, prepTime time.Duration) *Entry {
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

// GraphConfig describes one graph to load: its Name and the graph spec
// the registry builds it from (rs.GraphSpec). Rho, K, Heuristic and
// Weights are rejected for a snapshot whose preprocessing is persisted,
// and Landmarks for one that carries landmarks.
type GraphConfig = rs.GraphSpec

// ParseGraphSpec parses the -graph flag form, a name, "=", and a graph
// spec in the rs.ParseGraphSpec grammar:
//
//	name=gen=road,n=50000,weights=10000,rho=64
//	name=file=/data/g.gr,rho=32
//	name=snapshot=/data/g.snap
func ParseGraphSpec(spec string) (GraphConfig, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return GraphConfig{}, fmt.Errorf("server: graph spec %q: want name=key=val,...", spec)
	}
	cfg, err := rs.ParseGraphSpec(rest)
	cfg.Name = name
	return cfg, err
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
	opt, err := cfg.Options()
	if err != nil {
		return nil, fmt.Errorf("server: graph %q: %w", cfg.Name, err)
	}

	start := time.Now()
	var (
		g      *rs.Graph
		snap   *rs.Snapshot
		size   int64
		format = "snapshot"
	)
	switch {
	case cfg.Snapshot != "":
		snap, size, err = rs.ReadSnapshotFile(cfg.Snapshot)
	case cfg.File != "" && isSnapshotFile(cfg.File):
		// A file= holding a snapshot gets the full snapshot treatment
		// (persisted radii and all), not a silent graph-only load.
		snap, size, err = rs.ReadSnapshotFile(cfg.File)
	default:
		g, format, err = cfg.Load()
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
		entry = newSolverEntry(cfg.Name, solver, rs.Options{Engine: opt.Engine}, cfg.Source(), 0)
		entry.Info.Rho, entry.Info.K, entry.Info.Heuristic = snap.Rho, snap.K, snap.Heuristic
		entry.Info.RadiiSource = RadiiFromSnapshot
	} else {
		if snap != nil {
			// A graph-only snapshot serves in its stored ids, so a
			// reordered one keeps its cache-locality relabeling.
			g = cfg.Reweight(snap.G)
		}
		prep := time.Now()
		solver, err := rs.NewSolver(g, opt)
		if err != nil {
			return nil, fmt.Errorf("server: graph %q: %v", cfg.Name, err)
		}
		entry = newSolverEntry(cfg.Name, solver, opt.WithDefaults(), cfg.Source(), time.Since(prep))
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
