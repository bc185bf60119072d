package frontier

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func TestPushMinExtractBasics(t *testing.T) {
	f := New()
	f.Reset(10)
	if _, ok := f.Head(); ok {
		t.Fatal("Head on empty frontier reported ok")
	}
	f.Push(3, 5)
	f.Push(7, 2)
	f.Push(1, 9)
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	if mn, ok := f.Head(); !ok || mn.V != 7 || mn.Key != 2 {
		t.Fatalf("Head = %+v ok=%v, want (2, 7)", mn, ok)
	}
	// Decrease-key: vertex 1 moves to the front.
	f.Push(1, 1)
	if mn, ok := f.Head(); !ok || mn.V != 1 || mn.Key != 1 {
		t.Fatalf("Head after decrease = %+v ok=%v, want (1, 1)", mn, ok)
	}
	got := f.ExtractBelow(2, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Fatalf("ExtractBelow(2) = %v, want [1 7]", got)
	}
	if f.Len() != 1 {
		t.Fatalf("Len after extract = %d, want 1", f.Len())
	}
	if mn, ok := f.Head(); !ok || mn.V != 3 || mn.Key != 5 {
		t.Fatalf("Head after extract = %+v ok=%v, want (5, 3)", mn, ok)
	}
	f.Drop(3)
	if f.Len() != 0 {
		t.Fatal("Drop(3) left the frontier non-empty")
	}
	if _, ok := f.Head(); ok {
		t.Fatal("Head after final drop reported ok")
	}
}

// TestDropRepushSameKey is the stale-duplicate regression: dropping a
// vertex and re-pushing it at the SAME key must leave exactly one live
// entry, even though an identical (key, vertex) pair survives inside an
// older run. The epoch stamp, not the key value, decides liveness.
func TestDropRepushSameKey(t *testing.T) {
	f := New()
	f.Reset(4)
	f.Push(2, 5)
	f.Commit() // seal (5, 2) into a run
	f.Drop(2)
	f.Push(2, 5) // same key, new epoch
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
	got := f.ExtractBelow(10, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("ExtractBelow = %v, want exactly [2]", got)
	}
	if f.Len() != 0 {
		t.Fatalf("Len after extract = %d, want 0", f.Len())
	}
	// The rank query must count the vertex once, too.
	f.Push(1, 3)
	f.Commit()
	f.Drop(1)
	f.Push(1, 3)
	f.Push(3, 4)
	if d := f.SelectKth(2); d != 4 {
		t.Fatalf("SelectKth(2) = %v, want 4 (duplicate live entry counted twice?)", d)
	}
}

// TestResetIsolatesSolves: entries from a previous solve must never leak
// into the next one, across shrinking and growing vertex counts.
func TestResetIsolatesSolves(t *testing.T) {
	f := New()
	f.Reset(8)
	for v := int32(0); v < 8; v++ {
		f.Push(v, float64(v))
	}
	f.Commit()
	f.Reset(4)
	if f.Len() != 0 {
		t.Fatalf("Len after Reset = %d", f.Len())
	}
	if _, ok := f.Head(); ok {
		t.Fatal("Head after Reset reported ok")
	}
	f.Push(2, 1)
	if got := f.ExtractBelow(100, nil); len(got) != 1 || got[0] != 2 {
		t.Fatalf("extract after reset = %v, want [2]", got)
	}
}

// TestSelectKth ports the quickselect test from internal/core: the k-th
// smallest live key must match a sorted oracle under heavy ties, with
// runs and staging in arbitrary interleavings.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		f := New()
		f.Reset(n)
		keys := make([]float64, n)
		for v := 0; v < n; v++ {
			keys[v] = float64(rng.Intn(10)) // heavy ties
			f.Push(int32(v), keys[v])
			if rng.Intn(4) == 0 {
				f.Commit() // scatter entries across several runs
			}
		}
		sorted := append([]float64(nil), keys...)
		sort.Float64s(sorted)
		k := 1 + rng.Intn(n)
		if got := f.SelectKth(k); got != sorted[k-1] {
			t.Fatalf("trial %d: SelectKth(%d) = %v, want %v (keys %v)", trial, k, got, sorted[k-1], keys)
		}
	}
}

// TestSortEnts pins the inlined run sort against the generic sort on
// adversarial shapes: random, heavy ties, sorted, reversed, organ-pipe.
func TestSortEnts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []func(i, n int) Entry{
		func(i, n int) Entry { return Entry{Key: float64(rng.Intn(1 << 20)), V: int32(i)} },
		func(i, n int) Entry { return Entry{Key: float64(rng.Intn(3)), V: int32(rng.Intn(8))} },
		func(i, n int) Entry { return Entry{Key: float64(i), V: int32(i)} },
		func(i, n int) Entry { return Entry{Key: float64(n - i), V: int32(i)} },
		func(i, n int) Entry {
			if i < n/2 {
				return Entry{Key: float64(i), V: int32(i)}
			}
			return Entry{Key: float64(n - i), V: int32(i)}
		},
	}
	for si, shape := range shapes {
		for _, n := range []int{0, 1, 2, insertionThreshold, 100, 5000} {
			ents := make([]Entry, n)
			for i := range ents {
				ents[i] = shape(i, n)
			}
			want := append([]Entry(nil), ents...)
			sort.Slice(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			sortEnts(ents)
			// Runs are Key-sorted only; tie order among equal keys is
			// unspecified, so assert the key sequence (which, with the
			// multiset preserved by in-place sorting, pins correctness).
			for i := range ents {
				if ents[i].Key != want[i].Key {
					t.Fatalf("shape %d n=%d: key order broken at %d: %+v", si, n, i, ents[i])
				}
			}
		}
	}
}

// TestSteadyStateZeroAllocs is the substrate's own allocation contract:
// after a warm-up solve has grown every buffer, a full
// push/commit/head/extract/select cycle allocates nothing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const n = 512
	f := New()
	var buf []int32
	cycle := func() {
		f.Reset(n)
		for v := int32(0); v < n; v++ {
			f.Push(v, float64((v*37)%101))
		}
		f.Commit()
		for f.Len() > 0 {
			k := f.Len()
			if k > 32 {
				k = 32
			}
			d := f.SelectKth(k)
			if mn, ok := f.Head(); !ok || mn.Key > d {
				t.Fatalf("Head %v inconsistent with SelectKth %v", mn, d)
			}
			buf = f.ExtractBelow(d, buf[:0])
			// Push a shrinking tail back above the threshold to exercise
			// decrease-key staleness, union, and run merging; extraction
			// outpaces re-insertion, so the loop terminates.
			for i, v := range buf {
				if i%3 == 0 && d < 90 {
					f.Push(v, d+1+float64(i%7))
				}
			}
			f.Commit()
		}
	}
	cycle() // warm: grow buffers, arena, gather scratch
	cycle()
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs > 0 {
		t.Fatalf("steady-state cycle allocates %v objects, want 0", allocs)
	}
}

// TestParallelCommitLargeBatch forces the parallel filter and compact
// paths (batches above filterParThreshold at GOMAXPROCS >= 2) with a
// heavy stale load — every vertex is pushed three times at decreasing
// keys and a third are dropped before commit — then verifies extraction
// order-insensitively against a sequential model. Run under -race by CI.
func TestParallelCommitLargeBatch(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 3 * filterParThreshold
	rng := rand.New(rand.NewSource(42))
	f := New()
	f.Reset(n)
	want := make(map[int32]float64)
	for v := int32(0); v < n; v++ {
		k := rng.Float64() * 1000
		// Three pushes per vertex: the two higher keys go stale.
		f.Push(v, k+20)
		f.Push(v, k+10)
		f.Push(v, k)
		want[v] = k
	}
	for v := int32(0); v < n; v += 3 {
		f.Drop(v)
		delete(want, v)
	}
	f.Commit()
	if f.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(want))
	}
	// Several staged rounds force tier merges over large runs, which
	// drives the parallel compact inside mergeTopTwo.
	for round := 0; round < 4; round++ {
		for v := int32(1); v < n; v += 4 {
			if k, ok := want[v]; ok {
				f.Push(v, k-float64(round+1))
				want[v] = k - float64(round+1)
			}
		}
		f.Commit()
	}
	got := f.ExtractBelow(500, nil)
	for _, v := range got {
		k, ok := want[v]
		if !ok {
			t.Fatalf("extracted vertex %d not live in model", v)
		}
		if k > 500 {
			t.Fatalf("extracted vertex %d with model key %v > threshold", v, k)
		}
		delete(want, v)
	}
	for v, k := range want {
		if k <= 500 {
			t.Fatalf("vertex %d (key %v) should have been extracted", v, k)
		}
	}
}
