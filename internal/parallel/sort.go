package parallel

import "slices"

// sortSeqThreshold is the size below which sorting falls back to the
// sequential standard-library sort.
const sortSeqThreshold = 1 << 13

// mergeSeqThreshold is the size below which merging is sequential.
const mergeSeqThreshold = 1 << 14

// sortSeq is the sequential fallback: slices.SortFunc (generic pdqsort,
// comparator inlined at instantiation) rather than sort.Slice, whose
// reflect-based swapper dominated profiles of the ordered-set engine —
// the ordered-set engine once sorted a small batch every substep, so the
// constant factor here is hot-path cost.
func sortSeq[T any](data []T, less func(a, b T) bool) {
	slices.SortFunc(data, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}

// SortScratch sorts data in place by less, with a parallel merge sort
// for large inputs that uses the caller's scratch storage
// (cap(scratch) >= len(data)), so repeat callers on a hot path — the
// frontier substrate sealing sorted runs every step — allocate nothing.
// The sort is not stable.
func SortScratch[T any](data, scratch []T, less func(a, b T) bool) {
	n := len(data)
	if n <= sortSeqThreshold || Procs() == 1 {
		sortSeq(data, less)
		return
	}
	mergeSortInto(data, scratch[:n], less, true)
}

// Merge merges the sorted slices a and b into out by less;
// len(out) must equal len(a)+len(b) and out must not overlap the
// inputs. Large merges split recursively (midpoint of the larger run,
// binary search in the smaller), giving logarithmic span — the ordered-
// set union of the paper's substrate expressed on flat runs.
func Merge[T any](a, b, out []T, less func(x, y T) bool) {
	if len(out) != len(a)+len(b) {
		panic("parallel: Merge output length != len(a)+len(b)")
	}
	mergeInto(a, b, out, less)
}

// mergeSortInto sorts src; when inPlace is true the result ends up in src
// (buf is scratch), otherwise in buf.
func mergeSortInto[T any](src, buf []T, less func(a, b T) bool, inPlace bool) {
	n := len(src)
	if n <= sortSeqThreshold {
		sortSeq(src, less)
		if !inPlace {
			copy(buf, src)
		}
		return
	}
	mid := n / 2
	both(
		func() { mergeSortInto(src[:mid], buf[:mid], less, !inPlace) },
		func() { mergeSortInto(src[mid:], buf[mid:], less, !inPlace) },
	)
	if inPlace {
		mergeInto(buf[:mid], buf[mid:], src, less)
	} else {
		mergeInto(src[:mid], src[mid:], buf, less)
	}
}

// mergeInto merges sorted a and b into out (len(out) == len(a)+len(b)),
// splitting recursively for parallelism on large merges.
func mergeInto[T any](a, b, out []T, less func(x, y T) bool) {
	if len(a)+len(b) <= mergeSeqThreshold {
		mergeSeq(a, b, out, less)
		return
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	// Split the larger run at its midpoint and binary-search the split
	// point in the smaller run.
	am := len(a) / 2
	bm := lowerBound(b, a[am], less)
	both(
		func() { mergeInto(a[:am], b[:bm], out[:am+bm], less) },
		func() { mergeInto(a[am:], b[bm:], out[am+bm:], less) },
	)
}

// both runs the independent halves x and y of a divide step (a pool
// worker plus the caller) and waits for both; a saturated pool runs
// them one after the other on the caller.
func both(x, y func()) {
	fork(2, func(id int) {
		if id == 0 {
			x()
		} else {
			y()
		}
	})
}

func mergeSeq[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
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

// lowerBound returns the first index i in sorted s with !less(s[i], v),
// i.e. the insertion point of v keeping s sorted with v placed before
// equal elements.
func lowerBound[T any](s []T, v T, less func(x, y T) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(s[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
