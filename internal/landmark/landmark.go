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
// LowerBound(v, t) = max_L |d(L,v) − d(L,t)| and an a-priori upper bound
// min_L d(L,s) + d(L,t) (the bound that primes pruning before any
// relaxation reaches the target).
//
// A Set keeps one immutable distance vector per landmark
// (landmark-major), the layout Build and With produce and the snapshot
// persists. A query does not bound with every landmark. BoundTo makes
// one pass over the k landmarks at query start and keeps the two
// active landmarks whose bound at the source is largest (Goldberg and
// Harrelson's active landmarks); the goal-direction hook it returns
// for core.Params.Bound reads only their two vectors. A Set is
// immutable after construction; adding a landmark (With) shares the
// existing vectors with the new Set, which makes a Set safe to publish
// via atomic pointer and read from any number of concurrent solves.
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

// MaxLandmarks caps a Set's size. Selecting the active landmarks costs
// O(k) once per query, and each landmark holds an n-float vector.
const MaxLandmarks = 64

// active is how many landmarks a query's hook bounds with. A prototype
// sweep over 1, 2, 3, 4 and all 8 landmarks on the serving benchmark's
// road-route graph (300 pruned routes to targets 50 hops away, 4–6
// rounds, GOMAXPROCS 2 on a 2-vCPU VM) gave total route times of
// 0.72–0.75, 0.73–0.75, 0.85, 0.91–0.93 and 1.14–1.17 relative to an
// all-landmark bound kept in a per-vertex memo. One landmark scanned
// 45,933 arcs per route against two landmarks' 44,523; two is kept for
// the tighter bound at the same speed. BoundTo's hook is written out
// for two.
const active = 2

// Set is an immutable ALT landmark index over a graph with n vertices.
// The zero value is unusable; build one with New, FromRows, or With.
type Set struct {
	n     int
	verts []graph.V   // landmark ids, in insertion order
	vecs  [][]float64 // vecs[i][v] = d(verts[i], v); never written after construction
}

// New returns an empty landmark set for an n-vertex graph. An empty
// set answers LowerBound 0, and BoundTo a nil hook and an upper bound
// of +Inf (no information).
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
// with an atomic pointer swap. dist is copied; the existing landmarks'
// vectors are shared with the new Set, so With costs O(n).
func (s *Set) With(v graph.V, dist []float64) (*Set, error) {
	if s == nil {
		return nil, fmt.Errorf("landmark: With on a nil set")
	}
	if err := s.checkVector(v, dist); err != nil {
		return nil, err
	}
	k := len(s.verts)
	return &Set{
		n:     s.n,
		verts: append(append(make([]graph.V, 0, k+1), s.verts...), v),
		vecs:  append(append(make([][]float64, 0, k+1), s.vecs...), append([]float64(nil), dist...)),
	}, nil
}

// FromRows rebuilds a Set from landmark-major rows: rows[i*n : (i+1)*n]
// is landmark i's full distance vector, the snapshot persistence
// layout. The constructor validates every row as With would and copies
// the rows once; each landmark's vector is its slice of the copy.
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
		// vertex at a time; the vectors are copied once, below.
		if err := s.checkVector(v, rows[i*n:(i+1)*n]); err != nil {
			return nil, fmt.Errorf("landmark %d: %w", i, err)
		}
		s.verts = append(s.verts, v)
	}
	data := append([]float64(nil), rows...)
	s.vecs = make([][]float64, len(verts))
	for i := range s.vecs {
		s.vecs[i] = data[i*n : (i+1)*n : (i+1)*n]
	}
	return s, nil
}

// Rows returns the set's vectors in landmark-major layout (the inverse
// of FromRows): a freshly allocated k*n slice where row i is landmark
// i's full distance vector.
func (s *Set) Rows() []float64 {
	if s.K() == 0 {
		return nil
	}
	rows := make([]float64, 0, len(s.vecs)*s.n)
	for _, vec := range s.vecs {
		rows = append(rows, vec...)
	}
	return rows
}

// term is one landmark's triangle-inequality bound on d(v, t) from
// a = d(L, v) and b = d(L, t): |a−b| − slack·max(a,b). When exactly one
// of a, b is +Inf it is +Inf: the landmark reaches one endpoint only,
// so they lie in different components of the (undirected) graph,
// d(v, t) = +Inf, and +Inf is an exact — hence admissible — bound.
// When both are +Inf the landmark reaches neither and says nothing:
// the result is NaN, which loses every comparison, so a caller taking
// the maximum of positive terms never picks it.
func term(a, b float64) float64 {
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
	return d - slack*m
}

// LowerBound returns an admissible lower bound on d(v, t): the best
// triangle-inequality bound over every landmark, the maximum of the
// positive terms (0 when the set is empty or knows nothing), or +Inf
// when some landmark certifies v and t lie in different components.
func (s *Set) LowerBound(v, t graph.V) float64 {
	if s.K() == 0 {
		return 0
	}
	if v < 0 || int(v) >= s.n || t < 0 || int(t) >= s.n {
		return 0 // out-of-range queries get the vacuous (admissible) bound
	}
	best := 0.0
	for _, vec := range s.vecs {
		if x := term(vec[v], vec[t]); x > best {
			best = x
		}
	}
	return best
}

// BoundTo prepares a pruned query from src to t in one pass over the
// landmarks. It returns the hook for core.Params.Bound, the bound at src
// over every landmark (LowerBound(src, t); +Inf certifies that src and
// t are disconnected), and the a-priori upper bound min_L d(L,src) +
// d(L,t), inflated by the safety margin (+Inf when no landmark reaches
// both).
//
// The hook bounds with the two active landmarks: those whose bound at
// src, LowerBound(src, t) over that landmark alone, is largest, ties to
// the lower index (a one-landmark set uses its landmark). It takes the
// maximum of their positive terms with LowerBound's +Inf and NaN rules,
// so it is admissible, consistent, never above LowerBound, and safe for
// concurrent use. An empty set or an out-of-range endpoint gives a nil
// hook, 0 and +Inf.
func (s *Set) BoundTo(src, t graph.V) (hook func(graph.V) float64, lb, est float64) {
	est = math.Inf(1)
	if s.K() == 0 || src < 0 || int(src) >= s.n || t < 0 || int(t) >= s.n {
		return nil, 0, est
	}
	// pick[j] is the landmark with the j-th largest bound at src and
	// key[j] that bound; a strictly larger bound displaces, so ties keep
	// the lower index.
	var pick [active]int
	var key [active]float64
	for j := range pick {
		pick[j], key[j] = -1, -1
	}
	for i, vec := range s.vecs {
		a, b := vec[src], vec[t]
		if c := a + b; c < est {
			est = c
		}
		x := term(a, b)
		if !(x > 0) { // NaN or non-positive: says nothing at src
			x = 0
		}
		for j := range pick {
			if x > key[j] {
				copy(pick[j+1:], pick[j:active-1])
				copy(key[j+1:], key[j:active-1])
				pick[j], key[j] = i, x
				break
			}
		}
	}
	if !math.IsInf(est, 1) {
		est += slack * est
	}
	if pick[1] < 0 { // one landmark: it fills both places
		pick[1] = pick[0]
	}
	// The hook is written out for two landmarks: a loop over them cost
	// 10–15% more per call in a micro-benchmark of random reads.
	a0, a1 := s.vecs[pick[0]], s.vecs[pick[1]]
	b0, b1 := a0[t], a1[t]
	return func(v graph.V) float64 {
		best := 0.0
		if x := term(a0[v], b0); x > best {
			best = x
		}
		if x := term(a1[v], b1); x > best {
			best = x
		}
		return best
	}, key[0], est
}
