package radiusstep

import (
	"fmt"
	"io"
	"os"
	"strings"

	"radiusstep/internal/baseline"
	"radiusstep/internal/check"
	"radiusstep/internal/core"
	"radiusstep/internal/gen"
	"radiusstep/internal/graph"
)

// --- construction --------------------------------------------------------

// Builder accumulates undirected edges and produces a Graph; self-loops
// are dropped and parallel edges merged keeping the lightest weight.
type Builder = graph.Builder

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a simple undirected Graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// AddShortcuts returns g plus extra edges (minimum weights kept).
func AddShortcuts(g *Graph, extra []Edge) *Graph { return graph.AddShortcuts(g, extra) }

// Edges returns g's undirected edge list (each edge once, U < V).
func Edges(g *Graph) []Edge { return graph.Edges(g) }

// Validate checks the structural invariants of g.
func Validate(g *Graph) error { return graph.Validate(g) }

// LargestComponent returns the densely relabeled largest connected
// component of g and the mapping from new ids to original ids.
func LargestComponent(g *Graph) (*Graph, []Vertex) { return graph.LargestComponent(g) }

// IsConnected reports whether g has one connected component.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// UnitWeights returns a copy of g with all weights set to 1.
func UnitWeights(g *Graph) *Graph { return graph.UnitWeights(g) }

// --- reordering ----------------------------------------------------------

// ReorderBFS relabels g in breadth-first order from root, improving the
// cache locality of traversals on high-diameter graphs (roads, grids).
// It returns the relabeled graph and the permutation (perm[old] = new).
func ReorderBFS(g *Graph, root Vertex) (*Graph, []Vertex) { return graph.ReorderBFS(g, root) }

// ReorderByDegree relabels g in descending-degree order, clustering hubs
// at the front (helpful on scale-free graphs).
func ReorderByDegree(g *Graph) (*Graph, []Vertex) { return graph.ReorderByDegree(g) }

// PermuteFloats maps a value vector through a relabeling permutation:
// out[perm[i]] = in[i] (for carrying distances across ReorderBFS etc.).
func PermuteFloats(in []float64, perm []Vertex) []float64 { return graph.PermuteFloats(in, perm) }

// UnpermuteFloats maps a relabeled-id value vector back to original ids
// (out[old] = in[perm[old]]), the inverse of PermuteFloats. Servers
// answering queries over a reordered graph apply it to every distance
// vector before returning it.
func UnpermuteFloats(in []float64, perm []Vertex) []float64 { return graph.UnpermuteFloats(in, perm) }

// InvertPerm returns the inverse permutation (inv[perm[old]] = old).
func InvertPerm(perm []Vertex) []Vertex { return graph.InvertPerm(perm) }

// OrderByName computes the relabeling permutation for a named vertex
// order — "bfs", "degree", or "none" (nil) — the set cmd/graphpack's
// -order flag accepts. See ReorderBFS and ReorderByDegree for when each
// order pays off.
func OrderByName(g *Graph, name string) ([]Vertex, error) { return graph.OrderByName(g, name) }

// ApplyOrder relabels g by perm (perm[old] = new). It panics if perm is
// not a permutation of [0, n).
func ApplyOrder(g *Graph, perm []Vertex) *Graph { return graph.ApplyOrder(g, perm) }

// --- serialization -------------------------------------------------------

// WriteGraph serializes g in the text format ("p sssp n m" header,
// 0-indexed "u v w" edge lines).
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteText(w, g) }

// WriteDIMACS serializes g in the DIMACS shortest-path format ("p sp n m"
// header, 1-indexed "a u v w" arc lines).
func WriteDIMACS(w io.Writer, g *Graph) error { return graph.WriteDIMACS(w, g) }

// WriteEdgeList serializes g as tab-separated "u v w" lines.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// GraphFormat identifies one of the supported interchange formats.
type GraphFormat = graph.Format

// The graph interchange formats, as detected by DetectGraphFormat and
// named by GraphFormat.String: the native text format, DIMACS ".gr",
// headerless edge lists, and snapshots.
const (
	FormatUnknown  = graph.FormatUnknown
	FormatText     = graph.FormatText
	FormatDIMACS   = graph.FormatDIMACS
	FormatEdgeList = graph.FormatEdgeList
	FormatSnapshot = graph.FormatSnapshot
)

// DetectGraphFormat sniffs a format from the first bytes of a file.
func DetectGraphFormat(prefix []byte) GraphFormat { return graph.Detect(prefix) }

// ReadGraphAuto detects the format of r and parses it: any of the three
// text formats the writers above produce, or a snapshot. For a snapshot it
// returns the real input graph (the preserved original when present, so
// shortcut edges are never mistaken for real ones); use ReadSnapshot to
// also recover the persisted radii and the augmented graph.
func ReadGraphAuto(r io.Reader) (*Graph, GraphFormat, error) { return graph.ReadAuto(r) }

// LoadGraphFile opens path and parses it with format auto-detection,
// with the same snapshot semantics as ReadGraphAuto. Snapshots take the
// sized read path, so a corrupted header's declared sizes are checked
// against the actual file length before any array allocation.
func LoadGraphFile(path string) (*Graph, GraphFormat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, FormatUnknown, err
	}
	defer f.Close()
	prefix := make([]byte, 8)
	n, _ := io.ReadFull(f, prefix)
	if DetectGraphFormat(prefix[:n]) == FormatSnapshot {
		s, _, serr := graph.ReadSnapshotFile(path)
		if serr != nil {
			return nil, FormatSnapshot, serr
		}
		// InputGraph undoes any pack-time relabeling: this function's
		// contract is "the real input graph, original ids".
		return s.InputGraph(), FormatSnapshot, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, FormatUnknown, err
	}
	return graph.ReadAuto(f)
}

// --- snapshots ------------------------------------------------------------

// Snapshot is the versioned, checksummed binary persistence unit: a CSR
// graph plus optional per-vertex radii, the pre-shortcut original graph,
// and the preprocessing parameters. Produce one with NewSnapshot (or
// cmd/graphpack) and turn it back into a query object with
// SolverFromSnapshot — paying the paper's Step 1 once per graph rather
// than once per process start.
type Snapshot = graph.Snapshot

// WriteSnapshot serializes s in the snapshot format.
func WriteSnapshot(w io.Writer, s *Snapshot) error { return graph.WriteSnapshot(w, s) }

// ReadSnapshot parses a snapshot, verifying its checksum and invariants.
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return graph.ReadSnapshot(r) }

// WriteSnapshotFile writes s to path crash-safely (temp file + fsync +
// rename + directory fsync): a crash at any point leaves either the old
// complete snapshot or the new one, never a torn file.
func WriteSnapshotFile(path string, s *Snapshot) error { return graph.WriteSnapshotFile(path, s) }

// ReadSnapshotFile loads the snapshot at path and reports its file size.
func ReadSnapshotFile(path string) (*Snapshot, int64, error) { return graph.ReadSnapshotFile(path) }

// Snapshot load failures are classified so operators can tell a
// partially copied file from a damaged one: errors.Is(err,
// ErrSnapshotTruncated) means the file ends before its declared
// sections (re-fetch or re-pack fixes it); ErrSnapshotCorrupt means the
// bytes are all there but fail checksum or structural validation
// (rebuild the snapshot). Both are quarantinable — the serving registry
// keeps the previous epoch and retries with backoff.
var (
	ErrSnapshotTruncated = graph.ErrSnapshotTruncated
	ErrSnapshotCorrupt   = graph.ErrSnapshotCorrupt
)

// --- generators ----------------------------------------------------------

// Grid2D returns the nx × ny unit-weight grid graph.
func Grid2D(nx, ny int) *Graph { return gen.Grid2D(nx, ny) }

// Grid3D returns the nx × ny × nz unit-weight grid graph.
func Grid3D(nx, ny, nz int) *Graph { return gen.Grid3D(nx, ny, nz) }

// RoadNet returns a random geometric graph resembling a road network:
// near-planar, constant average degree avgDeg, Θ(√n) diameter.
func RoadNet(n int, avgDeg float64, seed uint64) *Graph { return gen.RoadNet(n, avgDeg, seed) }

// ScaleFree returns a Barabási–Albert preferential-attachment graph
// (each vertex attaches to `attach` earlier vertices), resembling web
// and social graphs: skewed degrees, hub vertices, small diameter.
func ScaleFree(n, attach int, seed uint64) *Graph { return gen.ScaleFree(n, attach, seed) }

// ErdosRenyi returns a uniform random graph with n vertices, m edges.
func ErdosRenyi(n, m int, seed uint64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// RandomConnected returns a connected random graph (spanning tree plus
// random extra edges up to m).
func RandomConnected(n, m int, seed uint64) *Graph { return gen.RandomConnected(n, m, seed) }

// Comb returns the paper's Figure-2 pathological sparse graph on which
// reaching 3d vertices from any vertex costs Θ(d²) edge looks.
func Comb(d int) *Graph { return gen.Comb(d) }

// WithUniformIntWeights copies g with weights drawn uniformly from
// {lo..hi}, the paper's experimental weighting (1..10⁴).
func WithUniformIntWeights(g *Graph, lo, hi int, seed uint64) *Graph {
	return gen.WithUniformIntWeights(g, lo, hi, seed)
}

// RMAT generates a recursive-matrix graph with 2^scale vertices and up
// to m edges (Chakrabarti et al. parameters a, b, c; d = 1-a-b-c).
func RMAT(scale, m int, a, b, c float64, seed uint64) *Graph {
	return gen.RMAT(scale, m, a, b, c, seed)
}

// SmallWorld generates a Watts–Strogatz graph: ring lattice with k
// neighbors per vertex, each edge rewired with probability beta.
func SmallWorld(n, k int, beta float64, seed uint64) *Graph {
	return gen.SmallWorld(n, k, beta, seed)
}

// maxGenerated bounds GenerateByName's n: vertex ids are 32-bit, and
// rmat's scale stops at 2^30.
const maxGenerated = 1 << 30

// families are GenerateByName's graph families, each with the smallest
// n it builds and its builder.
var families = []struct {
	name  string
	min   int
	build func(n int, seed uint64) *Graph
}{
	{"grid2d", 2, func(n int, _ uint64) *Graph {
		side := intSqrt(n)
		return gen.Grid2D(side, side)
	}},
	{"grid3d", 2, func(n int, _ uint64) *Graph {
		side := intCbrt(n)
		return gen.Grid3D(side, side, side)
	}},
	{"road", 2, func(n int, seed uint64) *Graph {
		g, _ := graph.LargestComponent(gen.RoadNet(n, 6, seed))
		return g
	}},
	{"web", 2, func(n int, seed uint64) *Graph { return gen.ScaleFree(n, 7, seed) }},
	{"er", 2, func(n int, seed uint64) *Graph { return gen.ErdosRenyi(n, 4*n, seed) }},
	{"rmat", 2, func(n int, seed uint64) *Graph {
		scale := 1
		for 1<<scale < n {
			scale++
		}
		g, _ := graph.LargestComponent(gen.RMATDefault(scale, 8*n, seed))
		return g
	}},
	// A ring lattice of degree 4 needs 5 vertices.
	{"smallworld", 5, func(n int, seed uint64) *Graph { return gen.SmallWorld(n, 4, 0.05, seed) }},
	// Comb(d) has d + 2d² vertices, and d >= 2.
	{"comb", 8, func(n int, _ uint64) *Graph { return gen.Comb(intSqrt(n / 2)) }},
}

// GenerateByName builds a graph of about n vertices from a family
// name, the dispatcher the CLI tools use: grid2d, grid3d, road, web,
// er, rmat, smallworld, comb. road and rmat keep their largest
// component. An unknown family, or an n the family cannot build, is an
// error.
func GenerateByName(kind string, n int, seed uint64) (*Graph, error) {
	for _, f := range families {
		if f.name != kind {
			continue
		}
		if n < f.min || n > maxGenerated {
			return nil, fmt.Errorf("radiusstep: %s needs n in [%d, %d], got %d", kind, f.min, maxGenerated, n)
		}
		return f.build(n, seed), nil
	}
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return nil, fmt.Errorf("radiusstep: unknown graph family %q (want %s)", kind, strings.Join(names, "|"))
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

func intCbrt(n int) int {
	s := 1
	for (s+1)*(s+1)*(s+1) <= n {
		s++
	}
	return s
}

// --- baselines -----------------------------------------------------------

// Dijkstra computes SSSP distances with the sequential heap algorithm —
// the work baseline radius-stepping is compared against.
func Dijkstra(g *Graph, src Vertex) []float64 { return baseline.Dijkstra(g, src) }

// BellmanFord computes SSSP with synchronous relaxation rounds,
// returning distances and the number of rounds. It is the sequential
// engine with every radius unbounded, so the whole solve is one step.
func BellmanFord(g *Graph, src Vertex) ([]float64, int) { return core.BellmanFord(g, src) }

// DeltaStats reports the phase structure of a ∆-stepping run.
type DeltaStats = baseline.DeltaStats

// DeltaStepping runs the Meyer–Sanders algorithm with bucket width delta.
func DeltaStepping(g *Graph, src Vertex, delta float64) ([]float64, DeltaStats) {
	return baseline.DeltaStepping(g, src, delta)
}

// BFS runs breadth-first search, returning hop distances (-1 when
// unreachable) and the eccentricity-style level count.
func BFS(g *Graph, src Vertex) ([]int32, int) { return baseline.BFS(g, src) }

// BFSParallel is the level-synchronous parallel BFS.
func BFSParallel(g *Graph, src Vertex) ([]int32, int) { return baseline.BFSParallel(g, src) }

// --- verification --------------------------------------------------------

// VerifyDistances checks the SSSP optimality certificate for dist: it
// returns nil exactly when dist is the true distance vector from src.
func VerifyDistances(g *Graph, src Vertex, dist []float64) error {
	return check.VerifyDistances(g, src, dist)
}
