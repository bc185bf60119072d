// Package frontier implements the flat, arena-backed ordered frontier
// that backs the paper's parallel engine (Algorithm 2) and the
// ρ-stepping engine: a lazy-batched priority multiset in the style of
// Dong et al., "Efficient Stepping Algorithms and Implementations for
// Parallel Shortest Paths" (2021), in place of the join-based ordered
// sets the paper keeps Q and R in (§3.2–3.3).
//
// The structure keeps its (key, vertex) entries in a small collection of
// distance-sorted runs plus one unsorted staging batch:
//
//   - Push records an insert or decrease-key lazily: one append to the
//     staging batch plus a per-vertex epoch bump that invalidates every
//     older entry for that vertex (stamp-based deduplication — stale
//     entries are never searched for, only skipped when met).
//   - Commit seals the staging batch into a new sorted run (the bulk
//     union of Algorithm 2), then restores the size-tiered run invariant
//     by merging the topmost runs; merges drop stale entries, so the
//     arena compacts itself as a side effect of ordinary operation.
//   - ExtractBelow(d) removes and returns every live vertex with
//     key <= d — Algorithm 2's split — touching only a binary search
//     plus the extracted prefix of each run.
//   - MinShifted answers the radius-stepping target d_i = min δ(v)+r(v)
//     with one stale-skipping scan of the runs, in place of the paper's
//     second ordered set R.
//   - Head returns a live entry with the minimum key, skipping dead run
//     heads permanently (lazy deletion, amortized O(1) per entry).
//   - SelectKth answers the ρ-th-smallest rank query of ρ-stepping
//     directly from the runs, replacing the ordered-set rank search.
//
// All storage is workspace-owned and grow-only: run buffers retire into
// a free arena on Reset and are reused by later solves, so a
// steady-state solve performs no allocations. Sorting and merging of
// large runs go through internal/parallel's sort/merge primitives; the
// rank-query scan parallelizes over run blocks. A frontier is not safe
// for concurrent use — per-worker staging happens upstream (the relax
// kernels' per-worker buffers), and batches arrive here already merged.
//
// The differential test and fuzzer (differential_test.go) drive this
// structure and a map model of one key per vertex with identical
// operation sequences and compare every answer.
package frontier

import (
	"math"
	"time"

	"radiusstep/internal/parallel"
)

// Entry is one frontier element: a vertex and the key it was filed
// under. E is the vertex's push epoch at filing time; an entry is live
// iff it carries the vertex's current epoch (older entries are stale and
// skipped wherever they surface). Keys must not be NaN.
type Entry struct {
	Key float64
	V   int32
	E   uint32
}

// Ops counts substrate operations for one solve — the observability
// hook surfaced through core.Stats, the engine-matrix benchmark rows,
// and the daemon's /v1/stats frontier section.
type Ops struct {
	// Pushes counts lazy insert/decrease-key records staged.
	Pushes int64 `json:"pushes"`
	// Batches counts staging batches sealed into sorted runs.
	Batches int64 `json:"batches"`
	// Merges counts run merges (the lazy batched union restoring the
	// size-tier invariant).
	Merges int64 `json:"merges"`
	// Extracted counts live entries removed by ExtractBelow.
	Extracted int64 `json:"extracted"`
	// Stale counts dead entries skipped or compacted away.
	Stale int64 `json:"stale"`
	// Selects counts rank queries served by SelectKth.
	Selects int64 `json:"selects"`

	// Phase timings, populated only when SetTiming(true) was called
	// (the solve-trace recorder enables it; untraced solves never read
	// the clock here). FilterNanos times Commit's stale-entry filter
	// pass, SortNanos the batch sort sealing a run, and MergeNanos the
	// size-tier run merges (including their compaction sweeps).
	FilterNanos int64 `json:"filterNanos,omitempty"`
	SortNanos   int64 `json:"sortNanos,omitempty"`
	MergeNanos  int64 `json:"mergeNanos,omitempty"`
}

// run is one distance-sorted slice of entries; start indexes the first
// unconsumed entry (extraction and head-skipping advance it, so the
// consumed prefix is never revisited).
type run struct {
	ents  []Entry
	start int
}

func (r *run) size() int { return len(r.ents) - r.start }

// sortParThreshold is the batch size above which sealing a run uses the
// parallel merge sort (below it, a zero-allocation sequential sort).
const sortParThreshold = 1 << 13

// mergeParThreshold is the combined size above which a run merge uses
// the parallel merge primitive.
const mergeParThreshold = 1 << 14

// selectGrain is the per-block work size of the parallel rank-query
// scan.
const selectGrain = 1 << 13

// filterParThreshold is the entry count above which Commit's stale
// filter and the merge-path compaction run as a parallel
// count–scan–scatter instead of a sequential sweep. Below it the
// sequential sweep wins: the filter is a predicated copy, cheap enough
// that a fork-join barrier costs more than the sweep.
const filterParThreshold = 1 << 13

// filterGrain is the per-block size of the parallel live filter.
const filterGrain = 1 << 12

// F is a flat ordered frontier over vertices [0, n). The zero value is
// NOT ready; obtain one from New and call Reset before each solve.
// Buffers are grow-only and reused across solves.
type F struct {
	// Per-vertex state. mark[v] == stamp means v is currently in the
	// frontier; epoch[v] is bumped by every push so older entries go
	// stale; cur[v] is the key of v's live entry (valid while marked).
	mark  []uint32
	epoch []uint32
	cur   []float64
	stamp uint32
	liveN int

	stage   []Entry // unsorted staging batch (pending bulk union)
	runs    []run   // size-tiered sorted runs, oldest first
	free    [][]Entry
	scratch []Entry // parallel-sort scratch, grow-only

	keys   []float64 // rank-query gather buffer
	counts []int64   // rank-query per-block offsets

	ops   Ops
	timed bool // record phase timings into ops (solve tracing only)
}

// New returns an empty frontier. Call Reset before use.
func New() *F { return &F{} }

// Reset prepares the frontier for a solve over n vertices: membership is
// cleared by advancing the solve stamp (no O(n) sweep), run buffers
// retire into the free arena for reuse, and the op counters restart.
func (f *F) Reset(n int) {
	f.mark = sizedU32(f.mark, n)
	f.epoch = sizedU32(f.epoch, n)
	f.cur = sizedF64(f.cur, n)
	if f.stamp == ^uint32(0) {
		parallel.Fill(f.mark, 0)
		f.stamp = 0
	}
	f.stamp++
	f.liveN = 0
	f.stage = f.stage[:0]
	for i := range f.runs {
		f.retire(f.runs[i].ents)
	}
	f.runs = f.runs[:0]
	f.ops = Ops{}
}

// Len reports the number of live vertices in the frontier.
func (f *F) Len() int { return f.liveN }

// Ops returns the operation counters accumulated since Reset.
func (f *F) Ops() Ops { return f.ops }

// SetTiming enables (or disables) phase timing: when on, Commit and the
// run merges stamp wall-clock boundaries into Ops' FilterNanos/
// SortNanos/MergeNanos. Off by default so untraced solves never read
// the clock on the commit path. Persists across Reset.
func (f *F) SetTiming(on bool) { f.timed = on }

// now reads the wall clock when timing is enabled; otherwise it returns
// the zero time and the paired elapsed() is never consulted.
func (f *F) now() time.Time {
	if !f.timed {
		return time.Time{}
	}
	return time.Now()
}

// addElapsed accumulates time since t0 into *dst when timing is on.
func (f *F) addElapsed(dst *int64, t0 time.Time) {
	if f.timed {
		*dst += time.Since(t0).Nanoseconds()
	}
}

// Push inserts v with the given key, or moves it there if already
// present (both decrease- and increase-key are supported; the engines
// only ever decrease). The update is lazy: one staged entry plus an
// epoch bump that strands every older entry for v. Pushing a vertex at
// its current key is a no-op.
func (f *F) Push(v int32, key float64) {
	if f.mark[v] == f.stamp {
		if f.cur[v] == key {
			return
		}
	} else {
		f.mark[v] = f.stamp
		f.liveN++
	}
	f.cur[v] = key
	f.epoch[v]++
	f.stage = append(f.stage, Entry{Key: key, V: v, E: f.epoch[v]})
	f.ops.Pushes++
}

// Drop removes v from the frontier if present. Lazy: v's entries stay in
// place and are skipped as stale when met.
func (f *F) Drop(v int32) {
	if f.mark[v] == f.stamp {
		f.mark[v] = 0
		f.liveN--
	}
}

// live reports whether e is the current entry of its vertex.
func (f *F) live(e Entry) bool {
	return f.mark[e.V] == f.stamp && f.epoch[e.V] == e.E
}

// Commit seals the staging batch into a sorted run and restores the
// size-tier invariant (each run at least twice the size of the next
// newer one) by merging the topmost runs — the lazy bulk union. A
// no-op when nothing is staged. Queries (Head, MinShifted, ExtractBelow,
// SelectKth) self-commit, so calling Commit is an optimization, not a correctness
// requirement.
func (f *F) Commit() {
	if len(f.stage) == 0 {
		return
	}
	// Drop staged entries already superseded (re-pushed or dropped since
	// staging) before paying for the sort: with commits deferred across
	// a step's substeps, a vertex improved k times stages k entries but
	// only the last is live. Large batches filter in parallel, so the
	// commit path's formerly sequential prefix shrinks to the scan.
	t0 := f.now()
	var ents []Entry
	if len(f.stage) > filterParThreshold && parallel.Procs() > 1 {
		ents = f.filterLivePar(f.stage)
		f.stage = f.stage[:0]
	} else {
		w := 0
		for _, e := range f.stage {
			if f.live(e) {
				f.stage[w] = e
				w++
			} else {
				f.ops.Stale++
			}
		}
		ents = f.stage[:w]
		f.stage = f.takeBuf(cap(f.stage))[:0]
	}
	f.addElapsed(&f.ops.FilterNanos, t0)
	if len(ents) == 0 {
		f.retire(ents)
		return
	}
	t1 := f.now()
	f.sortEntries(ents)
	f.addElapsed(&f.ops.SortNanos, t1)
	f.runs = append(f.runs, run{ents: ents})
	f.ops.Batches++
	for len(f.runs) >= 2 && f.runs[len(f.runs)-2].size() < 2*f.runs[len(f.runs)-1].size() {
		f.mergeTopTwo()
	}
}

// sortEntries sorts ents by Key: a zero-allocation sequential sort for
// typical batch sizes, the parallel merge sort (with pooled scratch)
// for large ones.
func (f *F) sortEntries(ents []Entry) {
	if len(ents) > sortParThreshold && parallel.Procs() > 1 {
		if cap(f.scratch) < len(ents) {
			// Round up like takeBuf so a frontier that ramps across
			// steps reallocates the scratch O(log) times, not per seal.
			c := 2 * sortParThreshold
			for c < len(ents) {
				c <<= 1
			}
			f.scratch = make([]Entry, c)
		}
		parallel.SortScratch(ents, f.scratch[:cap(f.scratch)], lessKey)
		return
	}
	sortEnts(ents)
}

// mergeTopTwo merges the two newest runs into one, dropping stale
// entries (compaction) before the merge so the arena never accretes dead
// weight.
func (f *F) mergeTopTwo() {
	t0 := f.now()
	defer f.addElapsed(&f.ops.MergeNanos, t0)
	k := len(f.runs)
	a, b := &f.runs[k-2], &f.runs[k-1]
	f.compact(a)
	f.compact(b)
	la, lb := len(a.ents), len(b.ents)
	out := f.takeBuf(la + lb)[:la+lb]
	switch {
	case la == 0:
		copy(out, b.ents)
	case lb == 0:
		copy(out, a.ents)
	case la+lb > mergeParThreshold && parallel.Procs() > 1:
		parallel.Merge(a.ents, b.ents, out, lessKey)
	default:
		mergeEntries(a.ents, b.ents, out)
	}
	f.retire(a.ents)
	f.retire(b.ents)
	f.runs[k-2] = run{ents: out}
	f.runs = f.runs[:k-1]
	f.ops.Merges++
}

// compact rewrites r keeping only live entries, order preserved. Small
// runs sweep in place (the write index never catches the read index);
// large runs use the parallel live filter into an arena buffer, retiring
// the old one — this keeps the merge path's stale-dropping pass off the
// sequential critical section on big fringes.
func (f *F) compact(r *run) {
	if r.size() > filterParThreshold && parallel.Procs() > 1 {
		out := f.filterLivePar(r.ents[r.start:])
		f.retire(r.ents)
		r.ents = out
		r.start = 0
		return
	}
	w := 0
	for _, e := range r.ents[r.start:] {
		if f.live(e) {
			r.ents[w] = e
			w++
		} else {
			f.ops.Stale++
		}
	}
	r.ents = r.ents[:w]
	r.start = 0
}

// filterLivePar writes src's live entries, order preserved, into a
// buffer taken from the arena — a three-pass parallel pack mirroring
// packRun (per-block live counts, scan, scatter). An in-place parallel
// filter is impossible (block b's writes land inside earlier blocks'
// read ranges), hence the fresh destination; the source buffer remains
// the caller's to reuse or retire. Dropped entries are counted as stale.
func (f *F) filterLivePar(src []Entry) []Entry {
	nb := (len(src) + filterGrain - 1) / filterGrain
	if cap(f.counts) < nb+1 {
		f.counts = make([]int64, nb+1)
	}
	counts := f.counts[:nb]
	parallel.Blocks(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*filterGrain, (b+1)*filterGrain
			if hi > len(src) {
				hi = len(src)
			}
			var c int64
			for _, e := range src[lo:hi] {
				if f.live(e) {
					c++
				}
			}
			counts[b] = c
		}
	})
	total := parallel.ExclusiveScan(counts, counts)
	out := f.takeBuf(int(total))[:total]
	parallel.Blocks(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*filterGrain, (b+1)*filterGrain
			if hi > len(src) {
				hi = len(src)
			}
			pos := counts[b]
			for _, e := range src[lo:hi] {
				if f.live(e) {
					out[pos] = e
					pos++
				}
			}
		}
	})
	f.ops.Stale += int64(len(src)) - total
	return out
}

// mergeEntries is the sequential two-pointer merge of Key-sorted a and
// b into out (len(out) == len(a)+len(b)).
func mergeEntries(a, b, out []Entry) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Key < a[i].Key {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// Head returns a live entry with the minimum key, ties broken
// arbitrarily (whichever run head wins); ok is false when the frontier
// is empty. Runs are sorted by Key alone, so Head never scans an
// equal-key prefix for a vertex tiebreak and is O(runs) amortized even
// when every key is equal — the ρ-stepping lead vertex needs only a
// minimum-key witness.
func (f *F) Head() (e Entry, ok bool) {
	f.Commit()
	if f.liveN == 0 {
		return Entry{}, false
	}
	best := Entry{Key: math.Inf(1), V: -1}
	for i := range f.runs {
		r := &f.runs[i]
		for r.start < len(r.ents) && !f.live(r.ents[r.start]) {
			r.start++
			f.ops.Stale++
		}
		if r.start == len(r.ents) {
			continue
		}
		if h := r.ents[r.start]; h.Key < best.Key || best.V < 0 {
			best = h
		}
	}
	return best, best.V >= 0
}

// MinShifted returns the live vertex minimizing Key + shift[V] (ties
// broken toward the smaller vertex id) and that minimum; ok is false
// when the frontier is empty. This is the radius-stepping target rule
// d_i = min δ(v)+r(v) answered directly from the runs: Algorithm 2's R
// set exists only to serve this query, so the flat substrate replaces
// the second ordered set with one stale-skipping reduction over Q.
// Unlike Head, the scan cannot exploit run order (the shift reorders
// entries), so it touches every entry; radius-stepping keeps steps few
// precisely so this per-step cost stays small.
func (f *F) MinShifted(shift []float64) (v int32, val float64, ok bool) {
	f.Commit()
	if f.liveN == 0 {
		return -1, 0, false
	}
	best, bestV := math.Inf(1), int32(-1)
	for i := range f.runs {
		r := &f.runs[i]
		for _, e := range r.ents[r.start:] {
			if !f.live(e) {
				continue
			}
			s := e.Key + shift[e.V]
			if s < best || (s == best && (bestV < 0 || e.V < bestV)) {
				best, bestV = s, e.V
			}
		}
	}
	return bestV, best, bestV >= 0
}

// ExtractBelow removes every live vertex with key <= threshold from the
// frontier, appending them to dst — the split of Algorithm 2 (line 7).
// Only a binary search plus the extracted prefix of each run is touched;
// extraction order is per-run ascending, not globally sorted.
func (f *F) ExtractBelow(threshold float64, dst []int32) []int32 {
	f.Commit()
	w := 0
	for i := range f.runs {
		r := &f.runs[i]
		ents := r.ents
		// First index past the threshold (entries are Key-sorted).
		lo, hi := r.start, len(ents)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ents[mid].Key <= threshold {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for j := r.start; j < lo; j++ {
			e := ents[j]
			if f.live(e) {
				f.mark[e.V] = 0
				f.liveN--
				f.ops.Extracted++
				dst = append(dst, e.V)
			} else {
				f.ops.Stale++
			}
		}
		r.start = lo
		if r.start == len(ents) {
			f.retire(ents)
		} else {
			f.runs[w] = *r
			w++
		}
	}
	f.runs = f.runs[:w]
	return dst
}

// takeBuf returns a retired buffer with capacity >= n (length 0), or
// allocates one. The free arena is scanned newest-first; fits are the
// common case once sizes stabilize, making steady-state solves
// allocation-free.
func (f *F) takeBuf(n int) []Entry {
	for i := len(f.free) - 1; i >= 0; i-- {
		if cap(f.free[i]) >= n {
			buf := f.free[i]
			last := len(f.free) - 1
			f.free[i] = f.free[last]
			f.free[last] = nil
			f.free = f.free[:last]
			return buf[:0]
		}
	}
	c := 64
	for c < n {
		c <<= 1
	}
	return make([]Entry, 0, c)
}

// retire returns a run buffer to the free arena for reuse.
func (f *F) retire(buf []Entry) {
	f.free = append(f.free, buf[:0])
}

func sizedU32(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}

func sizedF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
