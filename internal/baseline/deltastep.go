package baseline

import (
	"math"
	"sync/atomic"

	"radiusstep/internal/graph"
	"radiusstep/internal/parallel"
)

// DeltaStats reports the phase structure of a ∆-stepping run: Steps is the
// number of buckets processed, Substeps the total inner (light-edge)
// iterations, Relaxations the number of successful distance improvements,
// and EdgesScanned the number of arcs the light and heavy passes tried to
// relax. Which priority-writes succeed depends on thread interleaving, so
// Relaxations can vary between parallel runs; EdgesScanned cannot.
type DeltaStats struct {
	Steps        int
	Substeps     int
	Relaxations  int64
	EdgesScanned int64
}

// DeltaStepping runs the Meyer–Sanders ∆-stepping algorithm from src with
// bucket width delta, relaxing light edges (w ≤ ∆) iteratively inside each
// bucket and heavy edges once per settled vertex. Relaxations inside a
// phase run in parallel with priority-writes.
//
// ∆-stepping is the algorithm Radius-Stepping refines: its fixed step
// width is what the per-vertex radii replace.
func DeltaStepping(g *graph.CSR, src graph.V, delta float64) ([]float64, DeltaStats) {
	if delta <= 0 {
		panic("baseline: delta must be positive")
	}
	n := g.NumVertices()
	var st DeltaStats
	bits := make([]uint64, n)
	parallel.Fill(bits, parallel.InfBits)
	bits[src] = parallel.ToBits(0)

	bucketOf := func(d float64) int { return int(d / delta) }
	var buckets [][]graph.V
	push := func(v graph.V, b int) {
		for b >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], v)
	}
	push(src, 0)

	// settledGen marks vertices already settled in the current bucket;
	// iterGen dedupes the per-iteration frontier (a settled vertex whose
	// distance improves within its own bucket re-enters the frontier and
	// must relax its light edges again — the Meyer–Sanders reinsertion).
	settledGen := make([]uint32, n)
	iterGen := make([]uint32, n)
	gen := uint32(0)
	iter := uint32(0)
	stamp := make([]uint32, n) // per-substep claim marks
	round := uint32(0)

	relax := func(frontier []graph.V, light bool) []graph.V {
		round++
		p := parallel.Procs()
		parts := make([][]graph.V, p)
		snap := make([]float64, len(frontier))
		parallel.For(len(frontier), func(i int) {
			snap[i] = parallel.FromBits(atomic.LoadUint64(&bits[frontier[i]]))
		})
		var relaxed, scanned atomic.Int64
		parallel.WorkersGrain(len(frontier), frontierGrain, func(w int, claim func() (int, int, bool)) {
			var local []graph.V
			var arcs int64
			for {
				lo, hi, ok := claim()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					u := frontier[i]
					du := snap[i]
					adj, ws := g.Neighbors(u)
					for j, v := range adj {
						isLight := ws[j] <= delta
						if isLight != light {
							continue
						}
						arcs++
						nb := parallel.ToBits(du + ws[j])
						if parallel.WriteMin(&bits[v], nb) {
							relaxed.Add(1)
							if parallel.Claim(&stamp[v], round) {
								local = append(local, v)
							}
						}
					}
				}
			}
			parts[w] = local
			scanned.Add(arcs)
		})
		st.Relaxations += relaxed.Load()
		st.EdgesScanned += scanned.Load()
		var next []graph.V
		for _, part := range parts {
			next = append(next, part...)
		}
		return next
	}

	for b := 0; b < len(buckets); b++ {
		if len(buckets[b]) == 0 {
			continue
		}
		gen++
		var settled []graph.V
		substeps := 0
		// Light-edge phase: iterate until the bucket stops refilling.
		for len(buckets[b]) > 0 {
			cur := buckets[b]
			buckets[b] = nil
			iter++
			var frontier []graph.V
			for _, v := range cur {
				d := parallel.FromBits(bits[v])
				if math.IsInf(d, 1) || bucketOf(d) != b || iterGen[v] == iter {
					continue // stale or duplicate entry
				}
				iterGen[v] = iter
				if settledGen[v] != gen {
					settledGen[v] = gen
					settled = append(settled, v)
				}
				frontier = append(frontier, v)
			}
			if len(frontier) == 0 {
				break // nothing but stale entries: not a real substep
			}
			substeps++
			for _, v := range relax(frontier, true) {
				nb := bucketOf(parallel.FromBits(bits[v]))
				push(v, nb)
			}
		}
		// Heavy-edge phase: one shot from everything settled in bucket b,
		// using their final (converged) bucket-b distances.
		if len(settled) > 0 {
			st.Steps++
			st.Substeps += substeps
			for _, v := range relax(settled, false) {
				nb := bucketOf(parallel.FromBits(bits[v]))
				push(v, nb)
			}
		}
	}
	return parallel.BitsToFloats(bits), st
}
