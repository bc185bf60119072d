package parallel

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultGrain - 1, DefaultGrain, DefaultGrain + 1, 10 * DefaultGrain} {
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	n := 1000
	var sum atomic.Int64
	ForGrain(n, 1, func(i int) { sum.Add(int64(i)) })
	want := int64(n*(n-1)) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 4096, 4097, 100000} {
		for _, grain := range []int{1, 7, 1024, 1 << 20} {
			covered := make([]int32, n)
			Blocks(n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d grain=%d: index %d covered %d times", n, grain, i, c)
				}
			}
		}
	}
}

func TestBlocksZeroAndNegativeGrain(t *testing.T) {
	var count atomic.Int64
	Blocks(100, 0, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 100 {
		t.Fatalf("covered %d of 100", count.Load())
	}
}

func TestWorkersClaimsEachIndexOnce(t *testing.T) {
	n := 5000
	hits := make([]int32, n)
	Workers(n, func(_ int, claim func() (int, bool)) {
		for {
			i, ok := claim()
			if !ok {
				return
			}
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d claimed %d times", i, h)
		}
	}
}

func TestWorkersDistinctIDs(t *testing.T) {
	seen := make([]atomic.Int32, Procs())
	Workers(Procs()*4, func(w int, claim func() (int, bool)) {
		seen[w].Add(1)
		for {
			if _, ok := claim(); !ok {
				return
			}
		}
	})
	for w := range seen {
		if seen[w].Load() > 1 {
			t.Fatalf("worker id %d reused", w)
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 100, DefaultGrain * 7} {
		got := Reduce(n, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
		want := n * (n - 1) / 2
		if got != want {
			t.Fatalf("n=%d: Reduce = %d, want %d", n, got, want)
		}
	}
}

func TestMinIndex(t *testing.T) {
	keys := []float64{5, 3, 9, 3, 7}
	i, k := MinIndex(len(keys), math.Inf(1), func(i int) float64 { return keys[i] })
	if i != 1 || k != 3 {
		t.Fatalf("MinIndex = (%d,%v), want (1,3)", i, k)
	}
	i, k = MinIndex(0, math.Inf(1), func(int) float64 { return 0 })
	if i != -1 || !math.IsInf(k, 1) {
		t.Fatalf("empty MinIndex = (%d,%v)", i, k)
	}
}

func TestMinIndexLarge(t *testing.T) {
	n := 300000
	keys := make([]float64, n)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range keys {
		keys[i] = r.Float64()
	}
	target := n/2 + 13
	keys[target] = -1
	i, k := MinIndex(n, math.Inf(1), func(i int) float64 { return keys[i] })
	if i != target || k != -1 {
		t.Fatalf("MinIndex = (%d,%v), want (%d,-1)", i, k, target)
	}
}

func TestExclusiveScanMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 9))
	for _, n := range []int{0, 1, 2, scanGrain - 1, scanGrain, scanGrain + 1, scanGrain*5 + 17} {
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(r.IntN(1000)) - 500
		}
		want := make([]int64, n)
		var acc int64
		for i := 0; i < n; i++ {
			want[i] = acc
			acc += src[i]
		}
		dst := make([]int64, n)
		total := ExclusiveScan(src, dst)
		if total != acc {
			t.Fatalf("n=%d: total = %d, want %d", n, total, acc)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, dst[i], want[i])
			}
		}
	}
}

func TestExclusiveScanInPlace(t *testing.T) {
	n := scanGrain*3 + 5
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 13)
	}
	want := make([]int64, n)
	ExclusiveScan(src, want)
	total := ExclusiveScan(src, src)
	for i := range want {
		if src[i] != want[i] {
			t.Fatalf("in-place scan diverges at %d", i)
		}
	}
	if total != want[n-1]+int64((n-1)%13) {
		t.Fatalf("in-place total wrong: %d", total)
	}
}

func TestInclusiveScan(t *testing.T) {
	for _, n := range []int{1, 5, scanGrain * 2} {
		src := make([]int, n)
		for i := range src {
			src[i] = i + 1
		}
		dst := make([]int, n)
		total := InclusiveScan(src, dst)
		acc := 0
		for i := 0; i < n; i++ {
			acc += i + 1
			if dst[i] != acc {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, dst[i], acc)
			}
		}
		if total != acc {
			t.Fatalf("total = %d, want %d", total, acc)
		}
	}
}

func TestFill(t *testing.T) {
	s := make([]float64, scanGrain*2+3)
	Fill(s, 42)
	for i, v := range s {
		if v != 42 {
			t.Fatalf("s[%d] = %v", i, v)
		}
	}
}

func TestSortRandom(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{0, 1, 2, 100, sortSeqThreshold + 1, sortSeqThreshold*4 + 9} {
		data := make([]int, n)
		for i := range data {
			data[i] = r.IntN(1000)
		}
		Sort(data, func(a, b int) bool { return a < b })
		if !slices.IsSorted(data) {
			t.Fatalf("n=%d not sorted", n)
		}
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	n := sortSeqThreshold * 3
	r := rand.New(rand.NewPCG(5, 6))
	data := make([]int, n)
	counts := map[int]int{}
	for i := range data {
		data[i] = r.IntN(50)
		counts[data[i]]++
	}
	Sort(data, func(a, b int) bool { return a < b })
	for _, v := range data {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count off by %d", k, c)
		}
	}
}

func TestSortQuickProperty(t *testing.T) {
	f := func(data []uint16) bool {
		s := make([]int, len(data))
		for i, v := range data {
			s[i] = int(v)
		}
		Sort(s, func(a, b int) bool { return a < b })
		return slices.IsSorted(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortScratch: the allocation-conscious variant must sort exactly
// like Sort across the sequential/parallel size boundary, reusing the
// caller's scratch.
func TestSortScratch(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	scratch := make([]int, sortSeqThreshold*4+9)
	for _, n := range []int{0, 1, 2, 100, sortSeqThreshold + 1, sortSeqThreshold*4 + 9} {
		data := make([]int, n)
		for i := range data {
			data[i] = r.IntN(1000)
		}
		counts := map[int]int{}
		for _, v := range data {
			counts[v]++
		}
		SortScratch(data, scratch, func(a, b int) bool { return a < b })
		if !slices.IsSorted(data) {
			t.Fatalf("n=%d not sorted", n)
		}
		for _, v := range data {
			counts[v]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("n=%d: element %d count off by %d", n, k, c)
			}
		}
	}
}

// TestMerge: sorted inputs of every size mix (empty sides, ties,
// parallel-threshold crossers) merge into one sorted multiset.
func TestMerge(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	r := rand.New(rand.NewPCG(9, 10))
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {7, 9}, {1000, 3}, {mergeSeqThreshold, mergeSeqThreshold + 17}} {
		a := make([]int, sz[0])
		b := make([]int, sz[1])
		for i := range a {
			a[i] = r.IntN(200)
		}
		for i := range b {
			b[i] = r.IntN(200)
		}
		Sort(a, less)
		Sort(b, less)
		out := make([]int, len(a)+len(b))
		Merge(a, b, out, less)
		if !slices.IsSorted(out) {
			t.Fatalf("merge %v: output not sorted", sz)
		}
		counts := map[int]int{}
		for _, v := range a {
			counts[v]++
		}
		for _, v := range b {
			counts[v]++
		}
		for _, v := range out {
			counts[v]--
		}
		for k, c := range counts {
			if c != 0 {
				t.Fatalf("merge %v: element %d count off by %d", sz, k, c)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched Merge did not panic")
		}
	}()
	Merge([]int{1}, []int{2}, make([]int, 3), less)
}

func TestLowerBound(t *testing.T) {
	s := []int{1, 3, 3, 5, 9}
	less := func(a, b int) bool { return a < b }
	cases := []struct{ v, want int }{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 3}, {9, 4}, {10, 5}}
	for _, c := range cases {
		if got := lowerBound(s, c.v, less); got != c.want {
			t.Fatalf("lowerBound(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestWriteMinSequential(t *testing.T) {
	x := InfBits
	if !WriteMin(&x, ToBits(5)) {
		t.Fatal("WriteMin from Inf should succeed")
	}
	if WriteMin(&x, ToBits(7)) {
		t.Fatal("WriteMin larger should fail")
	}
	if !WriteMin(&x, ToBits(3)) {
		t.Fatal("WriteMin smaller should succeed")
	}
	if FromBits(x) != 3 {
		t.Fatalf("final = %v", FromBits(x))
	}
}

func TestWriteMinOrderPreserving(t *testing.T) {
	// Bit-pattern order must match numeric order for non-negative floats.
	vals := []float64{0, 1e-300, 0.5, 1, 1.5, 1e10, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if !(ToBits(vals[i-1]) < ToBits(vals[i])) {
			t.Fatalf("bits not monotone between %v and %v", vals[i-1], vals[i])
		}
	}
}

func TestWriteMinConcurrent(t *testing.T) {
	// Hammer one cell from many goroutines; final value must be the min.
	x := InfBits
	n := 100000
	vals := make([]float64, n)
	r := rand.New(rand.NewPCG(11, 13))
	minV := math.Inf(1)
	for i := range vals {
		vals[i] = r.Float64() * 1000
		if vals[i] < minV {
			minV = vals[i]
		}
	}
	For(n, func(i int) { WriteMin(&x, ToBits(vals[i])) })
	if FromBits(x) != minV {
		t.Fatalf("final = %v, want %v", FromBits(x), minV)
	}
}

func TestClaimExactlyOnePerStamp(t *testing.T) {
	var cell uint32
	for stamp := uint32(1); stamp <= 50; stamp++ {
		var wins atomic.Int32
		For(64, func(int) {
			if Claim(&cell, stamp) {
				wins.Add(1)
			}
		})
		if wins.Load() != 1 {
			t.Fatalf("stamp %d: %d winners", stamp, wins.Load())
		}
	}
}

func TestBitsToFloats(t *testing.T) {
	bits := []uint64{ToBits(0), ToBits(2.5), InfBits}
	f := BitsToFloats(bits)
	if f[0] != 0 || f[1] != 2.5 || !math.IsInf(f[2], 1) {
		t.Fatalf("BitsToFloats = %v", f)
	}
}
