package radiusstep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// GraphSpec names one input graph and how to preprocess it. Its text
// form is the ParseGraphSpec grammar, which every tool takes: the -graph
// flag of sssp, graphpack and graphgen, and ssspd's -graph flag and
// admin load body after a "name=" prefix.
type GraphSpec struct {
	// Name is the name a daemon serves the graph under; tools that read
	// one graph leave it empty.
	Name string
	// Exactly one source is set: Gen, a GenerateByName family; File, a
	// graph file in any format LoadGraphFile detects; or Snapshot, a
	// graphpack snapshot.
	Gen      string
	File     string
	Snapshot string
	// N is Gen's approximate vertex count (0 means 100,000) and Seed
	// its generator seed.
	N    int
	Seed uint64
	// Weights > 0 replaces every weight with an integer drawn uniformly
	// from [1, Weights] (see Reweight).
	Weights int
	// Rho, K, Heuristic and Engine are the solver options (see
	// Options); the empty Heuristic and Engine mean the defaults.
	Rho       int
	K         int
	Heuristic string
	Engine    string
	// Landmarks builds that many ALT landmark vectors (farthest-point
	// selection) once the graph is preprocessed, for goal-directed route
	// pruning.
	Landmarks int
}

// specKeys are the keys of the ParseGraphSpec grammar.
var specKeys = []string{"gen", "file", "snapshot", "n", "seed", "weights", "rho", "k", "heuristic", "engine", "landmarks"}

// defaultSpecN is the vertex count a spec generates when it sets no n.
const defaultSpecN = 100000

// ParseGraphSpec parses the text form of a graph, comma-separated
// key=value fields naming one source and any settings:
//
//	gen=road,n=50000,weights=10000,rho=64
//	file=/data/g.gr,rho=32,landmarks=8
//	snapshot=/data/g.snap,engine=flat
//
// The keys are gen, file, snapshot, n, seed (default 42), weights, rho,
// k, heuristic, engine and landmarks. A key outside keys is an error
// (no keys accepts all of them), as is an unknown key or a value that
// does not parse; Options and Load check what the fields name.
func ParseGraphSpec(text string, keys ...string) (GraphSpec, error) {
	s := GraphSpec{Seed: 42}
	if text == "" {
		return s, fmt.Errorf("radiusstep: empty graph spec (want key=val,...)")
	}
	for _, field := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok || v == "" {
			return s, fmt.Errorf("radiusstep: graph spec %q: bad field %q", text, field)
		}
		if !slices.Contains(specKeys, k) {
			return s, fmt.Errorf("radiusstep: graph spec %q: unknown key %q", text, k)
		}
		if len(keys) > 0 && !slices.Contains(keys, k) {
			return s, fmt.Errorf("radiusstep: graph spec %q: key %q does not apply here (want %s)", text, k, strings.Join(keys, "|"))
		}
		var err error
		switch k {
		case "gen":
			s.Gen = v
		case "file":
			s.File = v
		case "snapshot":
			s.Snapshot = v
		case "n":
			s.N, err = strconv.Atoi(v)
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "weights":
			s.Weights, err = strconv.Atoi(v)
		case "rho":
			s.Rho, err = strconv.Atoi(v)
		case "k":
			s.K, err = strconv.Atoi(v)
		case "heuristic":
			s.Heuristic = v
		case "engine":
			s.Engine = v
		case "landmarks":
			s.Landmarks, err = strconv.Atoi(v)
		}
		if err != nil {
			return s, fmt.Errorf("radiusstep: graph spec %q: field %q: %v", text, field, err)
		}
	}
	return s, nil
}

// checkSource reports a spec that names no source or more than one.
func (s GraphSpec) checkSource() error {
	srcs := 0
	for _, src := range []string{s.Gen, s.File, s.Snapshot} {
		if src != "" {
			srcs++
		}
	}
	if srcs != 1 {
		return fmt.Errorf("radiusstep: graph spec needs exactly one of gen|file|snapshot")
	}
	return nil
}

// Options checks the spec and returns the solver options it names.
// heuristic=direct without k is the (1,ρ) construction, k = 1.
func (s GraphSpec) Options() (Options, error) {
	if err := s.checkSource(); err != nil {
		return Options{}, err
	}
	if s.Landmarks < 0 || s.Landmarks > MaxLandmarks {
		return Options{}, fmt.Errorf("radiusstep: landmarks %d out of range [0,%d]", s.Landmarks, MaxLandmarks)
	}
	opt := Options{Rho: s.Rho, K: s.K}
	if s.Heuristic != "" {
		h, err := ParseHeuristic(s.Heuristic)
		if err != nil {
			return Options{}, err
		}
		opt.Heuristic = h
		if h == HeuristicDirect && opt.K == 0 {
			opt.K = 1
		}
	}
	if s.Engine != "" {
		e, err := ParseEngine(s.Engine)
		if err != nil {
			return Options{}, err
		}
		opt.Engine = e
	}
	return opt, nil
}

// Source describes where the graph comes from: "gen:FAMILY,n=N,seed=S",
// "file:PATH" or "snapshot:PATH".
func (s GraphSpec) Source() string {
	switch {
	case s.Snapshot != "":
		return "snapshot:" + s.Snapshot
	case s.File != "":
		return "file:" + s.File
	}
	return fmt.Sprintf("gen:%s,n=%d,seed=%d", s.Gen, s.n(), s.Seed)
}

// n is the vertex count a gen= source asks for.
func (s GraphSpec) n() int {
	if s.N == 0 {
		return defaultSpecN
	}
	return s.N
}

// Load generates or reads the spec's graph and applies Reweight. It
// returns the graph's format name: "gen" for a generated graph, else
// the file's GraphFormat. A file= or snapshot= source is read as
// LoadGraphFile reads it, so a snapshot gives its input graph in
// original ids; snapshot= also requires the file to be a snapshot.
func (s GraphSpec) Load() (*Graph, string, error) {
	if err := s.checkSource(); err != nil {
		return nil, "", err
	}
	var (
		g      *Graph
		format string
		err    error
	)
	switch {
	case s.Snapshot != "":
		var snap *Snapshot
		format = FormatSnapshot.String()
		if snap, _, err = ReadSnapshotFile(s.Snapshot); err == nil {
			g = snap.InputGraph()
		}
	case s.File != "":
		var f GraphFormat
		g, f, err = LoadGraphFile(s.File)
		format = f.String()
	default:
		format = "gen"
		g, err = GenerateByName(s.Gen, s.n(), s.Seed)
	}
	if err != nil {
		return nil, format, err
	}
	return s.Reweight(g), format, nil
}

// Reweight returns g with integer weights drawn uniformly from
// [1, Weights] with seed Seed+1, so that a generated graph's weights do
// not repeat its generator's draws; it returns g itself when Weights is
// 0.
func (s GraphSpec) Reweight(g *Graph) *Graph {
	if s.Weights <= 0 {
		return g
	}
	return WithUniformIntWeights(g, 1, s.Weights, s.Seed+1)
}
