package parallel

// Reduce computes combine over mapf(0..n-1) in parallel.
// identity must satisfy combine(identity, x) == x; combine must be
// associative (commutativity is not required: partials are combined in
// worker order, but callers should not rely on a particular grouping).
func Reduce[T any](n int, identity T, mapf func(i int) T, combine func(a, b T) T) T {
	if n <= 0 {
		return identity
	}
	p := Procs()
	if p == 1 || n < DefaultGrain {
		acc := identity
		for i := 0; i < n; i++ {
			acc = combine(acc, mapf(i))
		}
		return acc
	}
	partials := make([]T, p)
	used := make([]bool, p)
	// Workers accumulate locally over dynamically claimed chunks; each
	// worker owns exactly one partial slot, so no locking is needed.
	Workers(blocksOf(n, DefaultGrain), func(w int, claim func() (int, bool)) {
		acc := identity
		any := false
		for {
			b, ok := claim()
			if !ok {
				break
			}
			lo, hi := blockBounds(b, n, DefaultGrain)
			for i := lo; i < hi; i++ {
				acc = combine(acc, mapf(i))
			}
			any = true
		}
		if any {
			partials[w] = acc
			used[w] = true
		}
	})
	acc := identity
	for w := 0; w < p; w++ {
		if used[w] {
			acc = combine(acc, partials[w])
		}
	}
	return acc
}

// MinIndex returns the index i in [0, n) minimizing key(i), breaking ties
// toward the smallest index, and the minimizing key. It returns (-1,
// identity) when n == 0. identity must compare greater-or-equal to every
// key (for example +Inf).
func MinIndex(n int, identity float64, key func(i int) float64) (int, float64) {
	type pair struct {
		k float64
		i int
	}
	best := Reduce(n, pair{identity, -1},
		func(i int) pair { return pair{key(i), i} },
		func(a, b pair) pair {
			if b.i == -1 {
				return a
			}
			if a.i == -1 || b.k < a.k || (b.k == a.k && b.i < a.i) {
				return b
			}
			return a
		})
	return best.i, best.k
}

func blocksOf(n, grain int) int { return (n + grain - 1) / grain }

func blockBounds(b, n, grain int) (lo, hi int) {
	lo = b * grain
	hi = lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}
