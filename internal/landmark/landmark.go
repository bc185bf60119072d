// Package landmark implements ALT-style (A*, Landmarks, Triangle
// inequality) lower bounds for goal-directed shortest-path queries.
//
// A landmark L is a vertex whose full single-source distance vector
// d(L, ·) is precomputed. On an undirected graph the triangle
// inequality gives, for any vertices v and t,
//
//	|d(L, v) − d(L, t)| <= d(v, t) <= d(L, v) + d(L, t)
//
// so a Set of k landmarks serves an admissible lower bound
// LowerBound(v, t) = max_L |d(L,v) − d(L,t)| (the goal-direction hook
// fed to core.Params.Bound) and an a-priori upper bound Estimate(s, t)
// = min_L d(L,s) + d(L,t) (the bound that primes pruning before any
// relaxation reaches the target).
//
// Distance vectors are stored in one flat vertex-major matrix —
// dist[v*k+i] holds d(landmark i, v) — so the per-vertex bound query
// the relax hot path issues reads k contiguous float64s. A Set is
// immutable after construction; adding a landmark (With) copies into a
// wider matrix, which makes a Set safe to publish via atomic pointer
// and read from any number of concurrent solves.
//
// Infinite entries are meaningful: d(L,v) = +Inf means v is outside
// L's component. One-sided infinity certifies v and t are in different
// components (LowerBound = +Inf, itself admissible); double-sided
// infinity says nothing (contributes 0). All finite bounds are shrunk
// by a relative safety margin (slack) so that accumulated float64
// rounding in the solver's path sums can never make an admissible real
// bound inadmissible in floating point — the property the byte-
// identical pruning guarantee rests on.
package landmark

import (
	"fmt"
	"math"

	"radiusstep/internal/graph"
)

// slack is the relative admissibility margin: lower bounds are shrunk
// and upper bounds inflated by this fraction of their magnitude. Path
// sums in the solver accumulate at most one float64 rounding (2^-53
// relative) per edge, so any path shorter than ~2^23 edges stays well
// inside 1e-9 relative error; the margin makes the triangle-inequality
// comparisons immune to that noise while costing a vanishing amount of
// pruning power. Integer-weighted graphs (the committed workloads) are
// exact anyway — there the margin only widens comparisons that were
// never tight.
const slack = 1e-9

// MaxLandmarks caps a Set's size: bound queries cost O(k) on the relax
// hot path, and past a few dozen landmarks the extra pruning power no
// longer pays for the scan.
const MaxLandmarks = 64

// Set is an immutable ALT landmark index over a graph with n vertices.
// The zero value is unusable; build one with New, FromRows, or With.
type Set struct {
	n     int
	verts []graph.V // landmark ids, in insertion order
	dist  []float64 // vertex-major: dist[v*k+i] = d(verts[i], v)
}

// New returns an empty landmark set for an n-vertex graph. An empty
// set answers LowerBound 0 and Estimate +Inf (no information).
func New(n int) (*Set, error) {
	if n < 0 {
		return nil, fmt.Errorf("landmark: negative vertex count %d", n)
	}
	return &Set{n: n}, nil
}

// K reports the number of landmarks; nil-safe (a nil Set has none).
func (s *Set) K() int {
	if s == nil {
		return 0
	}
	return len(s.verts)
}

// N reports the vertex count the set was built for.
func (s *Set) N() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Vertices returns a copy of the landmark ids in insertion order.
func (s *Set) Vertices() []graph.V {
	if s == nil || len(s.verts) == 0 {
		return nil
	}
	out := make([]graph.V, len(s.verts))
	copy(out, s.verts)
	return out
}

// Has reports whether v is already a landmark.
func (s *Set) Has(v graph.V) bool {
	if s == nil {
		return false
	}
	for _, l := range s.verts {
		if l == v {
			return true
		}
	}
	return false
}

// checkVector validates one landmark candidate against the set's
// shape: vertex in range, not already present, vector of length n with
// no negative or NaN entries (+Inf marks other components and is
// fine), and d(L, L) == 0.
func (s *Set) checkVector(v graph.V, dist []float64) error {
	if v < 0 || int(v) >= s.n {
		return fmt.Errorf("landmark: vertex %d out of range [0,%d)", v, s.n)
	}
	if s.Has(v) {
		return fmt.Errorf("landmark: vertex %d is already a landmark", v)
	}
	if len(s.verts) >= MaxLandmarks {
		return fmt.Errorf("landmark: set is full (%d landmarks)", MaxLandmarks)
	}
	if len(dist) != s.n {
		return fmt.Errorf("landmark: vector has %d entries for %d vertices", len(dist), s.n)
	}
	for i, d := range dist {
		if math.IsNaN(d) || d < 0 {
			return fmt.Errorf("landmark: invalid distance %v at vertex %d", d, i)
		}
	}
	if s.n > 0 && dist[v] != 0 {
		return fmt.Errorf("landmark: vector claims d(%d,%d) = %v, want 0", v, v, dist[v])
	}
	return nil
}

// With returns a new Set extended by landmark v with its full distance
// vector d(v, ·). The receiver is unchanged (copy-on-write), so
// readers holding the old Set are never disturbed — publish the result
// with an atomic pointer swap.
func (s *Set) With(v graph.V, dist []float64) (*Set, error) {
	if s == nil {
		return nil, fmt.Errorf("landmark: With on a nil set")
	}
	if err := s.checkVector(v, dist); err != nil {
		return nil, err
	}
	k := len(s.verts)
	out := &Set{
		n:     s.n,
		verts: append(append(make([]graph.V, 0, k+1), s.verts...), v),
		dist:  make([]float64, s.n*(k+1)),
	}
	for u := 0; u < s.n; u++ {
		row := out.dist[u*(k+1):]
		copy(row[:k], s.dist[u*k:(u+1)*k])
		row[k] = dist[u]
	}
	return out, nil
}

// FromRows rebuilds a Set from landmark-major rows: rows[i*n : (i+1)*n]
// is landmark i's full distance vector. This is the snapshot
// persistence layout (one contiguous vector per landmark); the
// constructor validates every row as With would, then transposes all of
// them into the vertex-major query layout in one pass.
func FromRows(n int, verts []graph.V, rows []float64) (*Set, error) {
	s, err := New(n)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(verts)*n {
		return nil, fmt.Errorf("landmark: %d row entries for %d landmarks over %d vertices", len(rows), len(verts), n)
	}
	for i, v := range verts {
		// checkVector reads the landmarks already in s, so s grows one
		// vertex at a time; the matrix is built once, below.
		if err := s.checkVector(v, rows[i*n:(i+1)*n]); err != nil {
			return nil, fmt.Errorf("landmark %d: %w", i, err)
		}
		s.verts = append(s.verts, v)
	}
	k := len(verts)
	s.dist = make([]float64, n*k)
	for i := range verts {
		for u, d := range rows[i*n : (i+1)*n] {
			s.dist[u*k+i] = d
		}
	}
	return s, nil
}

// Rows returns the set's matrix in landmark-major layout (the inverse
// of FromRows): a freshly allocated k*n slice where row i is landmark
// i's full distance vector.
func (s *Set) Rows() []float64 {
	if s.K() == 0 {
		return nil
	}
	k := len(s.verts)
	rows := make([]float64, k*s.n)
	for u := 0; u < s.n; u++ {
		for i, d := range s.dist[u*k : (u+1)*k] {
			rows[i*s.n+u] = d
		}
	}
	return rows
}

// bound is the best triangle-inequality bound on d(v, t) from v's and
// t's landmark columns: the maximum over landmarks of
// |a−b| − slack·max(a,b), and 0 when none is positive. When exactly one
// of a, b is +Inf, |a−b| is +Inf: the landmark reaches one endpoint
// only, so they lie in different components of the (undirected) graph,
// d(v, t) = +Inf, and +Inf is an exact — hence admissible — bound. When
// both are +Inf the landmark reaches neither and says nothing: a−b is
// NaN, which loses every comparison, so it adds nothing.
func bound(dv, dt []float64) float64 {
	best := 0.0
	for i, a := range dv {
		b := dt[i]
		d, m := a-b, a
		if d < 0 {
			d = -d
		}
		if d > math.MaxFloat64 {
			return d
		}
		if b > m {
			m = b
		}
		if lb := d - slack*m; lb > best {
			best = lb
		}
	}
	return best
}

// LowerBound returns an admissible lower bound on d(v, t): the best
// triangle-inequality bound over every landmark, 0 when the set is
// empty or knows nothing, +Inf when some landmark certifies v and t
// lie in different components.
func (s *Set) LowerBound(v, t graph.V) float64 {
	if s.K() == 0 {
		return 0
	}
	if v < 0 || int(v) >= s.n || t < 0 || int(t) >= s.n {
		return 0 // out-of-range queries get the vacuous (admissible) bound
	}
	k := len(s.verts)
	return bound(s.dist[int(v)*k:int(v)*k+k], s.dist[int(t)*k:int(t)*k+k])
}

// BoundTo returns the goal-direction hook for target t — a closure
// computing LowerBound(v, t) with t's landmark column captured — in
// the shape core.Params.Bound expects. Returns nil when the set holds
// no landmarks (no hook beats a useless hook on the hot path). The
// closure is pure and safe for concurrent use.
func (s *Set) BoundTo(t graph.V) func(graph.V) float64 {
	if s.K() == 0 {
		return nil
	}
	if t < 0 || int(t) >= s.n {
		return nil
	}
	k := len(s.verts)
	dist := s.dist
	dt := dist[int(t)*k : int(t)*k+k]
	return func(v graph.V) float64 {
		return bound(dist[int(v)*k:int(v)*k+k], dt)
	}
}

// Estimate returns an a-priori upper bound on d(s, t): the best
// through-landmark path min_L d(L,v) + d(L,t), inflated by the safety
// margin, or +Inf when no landmark reaches both endpoints. A finite
// estimate certifies the endpoints are connected.
func (s *Set) Estimate(v, t graph.V) float64 {
	if s.K() == 0 {
		return math.Inf(1)
	}
	k := len(s.verts)
	dv := s.dist[int(v)*k : int(v)*k+k]
	dt := s.dist[int(t)*k : int(t)*k+k]
	best := math.Inf(1)
	for i, a := range dv {
		if c := a + dt[i]; c < best {
			best = c
		}
	}
	if !math.IsInf(best, 1) {
		best += slack * best
	}
	return best
}
