package parallel

// Fill sets every element of dst to v in parallel. Useful for resetting
// large distance arrays between queries. Small arrays take a plain loop
// before any closure is formed, keeping per-query resets allocation-free
// (the steady-state contract of the solver workspace).
func Fill[T any](dst []T, v T) {
	if len(dst) <= scanGrain || Procs() == 1 {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	Blocks(len(dst), scanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}
