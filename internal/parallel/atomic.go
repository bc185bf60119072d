package parallel

import (
	"math"
	"sync/atomic"
)

// Distances are stored as uint64 bit patterns during parallel phases.
// For non-negative, non-NaN float64 values the IEEE-754 bit pattern is
// monotone in the value, so an atomic unsigned compare-and-swap implements
// the priority-write (WriteMin) of the paper directly.

// InfBits is the bit pattern of +Inf, the "unreached" distance.
var InfBits = math.Float64bits(math.Inf(1))

// ToBits converts a non-negative distance to its order-preserving bits.
func ToBits(v float64) uint64 { return math.Float64bits(v) }

// FromBits converts order-preserving bits back to a float64 distance.
func FromBits(b uint64) float64 { return math.Float64frombits(b) }

// WriteMin atomically updates *addr to min(*addr, bits) and reports
// whether it stored a new (strictly smaller) value. Concurrent callers may
// all observe true transiently, but the final value is the minimum of all
// written values — the linearizable priority-write.
func WriteMin(addr *uint64, bits uint64) bool {
	for {
		cur := atomic.LoadUint64(addr)
		if bits >= cur {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, cur, bits) {
			return true
		}
	}
}

// Claim atomically sets *addr to stamp and reports whether this caller
// performed the transition from a different value. It is the "mark once
// per round" primitive used to deduplicate frontier insertions: exactly
// one of the concurrent claimants for a given (addr, stamp) wins.
func Claim(addr *uint32, stamp uint32) bool {
	for {
		cur := atomic.LoadUint32(addr)
		if cur == stamp {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, cur, stamp) {
			return true
		}
	}
}

// BitsToFloats converts a bit-pattern distance array into float64 values
// in parallel (used once at the end of a solve). Small arrays convert in
// a plain loop so the only allocation is the returned vector.
func BitsToFloats(bits []uint64) []float64 {
	out := make([]float64, len(bits))
	if len(bits) <= scanGrain || Procs() == 1 {
		for i, b := range bits {
			out[i] = math.Float64frombits(b)
		}
		return out
	}
	Blocks(len(bits), scanGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = math.Float64frombits(bits[i])
		}
	})
	return out
}
