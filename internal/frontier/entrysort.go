package frontier

import "slices"

// Runs are sorted by Key ONLY: every consumer of run order
// (ExtractBelow's binary search, run merging, the rank-query gather) is
// set-semantic under key ties, so paying comparisons for a vertex-id
// tiebreak in the hottest loop would buy nothing. MinShifted, the one
// query that breaks ties by vertex id, scans every live entry anyway.

// lessKey orders entries by Key alone — the run order.
func lessKey(a, b Entry) bool { return a.Key < b.Key }

// cmpKey is lessKey as a three-way comparison for slices.SortFunc.
func cmpKey(a, b Entry) int {
	switch {
	case a.Key < b.Key:
		return -1
	case b.Key < a.Key:
		return 1
	default:
		return 0
	}
}

// sortEnts sorts ents ascending by Key: an inlined median-of-three
// quicksort with an insertion-sort base case and a depth limit that
// falls back to the generic sort. Sealing a run is the substrate's
// hottest operation (once per step), and the inlined field comparisons
// run a multiple faster than a func-valued generic sort while
// allocating nothing.
func sortEnts(e []Entry) {
	depth := 2
	for n := len(e); n > 0; n >>= 1 {
		depth += 2
	}
	quickEnts(e, depth)
}

// insertionThreshold is the partition size below which insertion sort
// takes over.
const insertionThreshold = 24

func quickEnts(e []Entry, depth int) {
	for len(e) > insertionThreshold {
		if depth == 0 {
			// Pathological pivot luck: hand off to the introspective
			// generic sort rather than going quadratic.
			slices.SortFunc(e, cmpKey)
			return
		}
		depth--
		p := med3(e[0], e[len(e)/2], e[len(e)-1]).Key
		i, j := 0, len(e)-1
		for i <= j {
			for e[i].Key < p {
				i++
			}
			for p < e[j].Key {
				j--
			}
			if i <= j {
				e[i], e[j] = e[j], e[i]
				i++
				j--
			}
		}
		// Recurse into the smaller partition, iterate on the larger, so
		// stack depth stays logarithmic.
		if j+1 < len(e)-i {
			quickEnts(e[:j+1], depth)
			e = e[i:]
		} else {
			quickEnts(e[i:], depth)
			e = e[:j+1]
		}
	}
	insertionEnts(e)
}

func insertionEnts(e []Entry) {
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i - 1
		for j >= 0 && x.Key < e[j].Key {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = x
	}
}

func med3(a, b, c Entry) Entry {
	if a.Key < b.Key {
		switch {
		case b.Key < c.Key:
			return b
		case a.Key < c.Key:
			return c
		default:
			return a
		}
	}
	switch {
	case a.Key < c.Key:
		return a
	case b.Key < c.Key:
		return c
	default:
		return b
	}
}
