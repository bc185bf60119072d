package parallel

// Number is the constraint for ExclusiveScan.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// scanGrain is the block size for the two-pass parallel scan.
const scanGrain = 4096

// ExclusiveScan writes into dst the exclusive prefix sums of src
// (dst[i] = src[0]+...+src[i-1], dst[0] = 0) and returns the total.
// dst and src may be the same slice. len(dst) must be >= len(src).
//
// The implementation is the classic two-pass blocked scan: pass one
// computes per-block sums in parallel, a short sequential scan combines
// block sums, and pass two fills each block in parallel.
func ExclusiveScan[T Number](src []T, dst []T) T {
	n := len(src)
	if n == 0 {
		return 0
	}
	if n <= scanGrain || Procs() == 1 {
		var acc T
		for i := 0; i < n; i++ {
			v := src[i]
			dst[i] = acc
			acc += v
		}
		return acc
	}
	nb := blocksOf(n, scanGrain)
	sums := make([]T, nb)
	Blocks(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := blockBounds(b, n, scanGrain)
			var acc T
			for i := lo; i < hi; i++ {
				acc += src[i]
			}
			sums[b] = acc
		}
	})
	var total T
	for b := 0; b < nb; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	Blocks(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := blockBounds(b, n, scanGrain)
			acc := sums[b]
			for i := lo; i < hi; i++ {
				v := src[i]
				dst[i] = acc
				acc += v
			}
		}
	})
	return total
}
