package frontier

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// model is the differential oracle: the frontier's semantics stated as
// plainly as possible. It holds one live key per member vertex and
// answers every query by a scan or a sort, so each answer can be read
// off the definition. MinShifted breaks key ties toward the smaller
// vertex, as F does.
type model map[int32]float64

func (m model) push(v int32, key float64) { m[v] = key }

func (m model) drop(v int32) { delete(m, v) }

func (m model) min() (key float64, ok bool) {
	for _, k := range m {
		if !ok || k < key {
			key, ok = k, true
		}
	}
	return key, ok
}

// checkHead compares F.Head with the model: the head's key must be the
// model's minimum, and its witness must be live in the model at that
// key (Head breaks key ties arbitrarily).
func checkHead(t *testing.T, f *F, o model) {
	t.Helper()
	gh, hok := f.Head()
	wk, wok := o.min()
	if hok != wok || (hok && gh.Key != wk) {
		t.Fatalf("Head: (%v,%v) vs oracle min key (%v,%v)", gh.Key, hok, wk, wok)
	}
	if k, live := o[gh.V]; hok && (!live || k != gh.Key) {
		t.Fatalf("Head witness (%v,%v) is not live in the model at that key", gh.Key, gh.V)
	}
}

// extractBelow removes and returns, in ascending vertex order, every
// vertex with key <= d (Algorithm 2's split).
func (m model) extractBelow(d float64) []int32 {
	var out []int32
	for v, k := range m {
		if k <= d {
			out = append(out, v)
			delete(m, v)
		}
	}
	slices.Sort(out)
	return out
}

// selectKth is the rank query: the k-th smallest key, 1-based.
func (m model) selectKth(k int) float64 { return slices.Sorted(maps.Values(m))[k-1] }

// minShifted is the radius target rule d = min key+shift[v], ties to
// the smaller vertex.
func (m model) minShifted(shift []float64) (int32, float64, bool) {
	bestV, best := int32(-1), math.Inf(1)
	for v, key := range m {
		s := key + shift[v]
		if s < best || (s == best && (bestV < 0 || v < bestV)) {
			bestV, best = v, s
		}
	}
	return bestV, best, bestV >= 0
}

// checkStep runs one random operation on both structures and compares
// every observable: length, minimum, extracted sets, rank queries.
func checkStep(t *testing.T, rng *rand.Rand, f *F, o model, n int, shift []float64, buf *[]int32) {
	t.Helper()
	switch op := rng.Intn(11); {
	case op < 4: // push / decrease-key / re-key
		v := int32(rng.Intn(n))
		key := float64(rng.Intn(32))
		f.Push(v, key)
		o.push(v, key)
	case op < 6: // drop
		v := int32(rng.Intn(n))
		f.Drop(v)
		o.drop(v)
	case op == 6: // commit (seal a run; oracle is always committed)
		f.Commit()
	case op == 7: // extract
		d := float64(rng.Intn(34) - 1)
		*buf = f.ExtractBelow(d, (*buf)[:0])
		got := slices.Sorted(slices.Values(*buf))
		if want := o.extractBelow(d); !slices.Equal(got, want) {
			t.Fatalf("ExtractBelow(%v): %v vs oracle %v", d, got, want)
		}
	case op == 8: // head (minimum key and a live witness)
		checkHead(t, f, o)
	case op == 9: // rank query
		if f.Len() == 0 {
			return
		}
		k := 1 + rng.Intn(f.Len())
		if got, want := f.SelectKth(k), o.selectKth(k); got != want {
			t.Fatalf("SelectKth(%d): %v vs oracle %v", k, got, want)
		}
	default: // shifted minimum (the radius target rule)
		gv, gd, gok := f.MinShifted(shift)
		wv, wd, wok := o.minShifted(shift)
		if gok != wok || gv != wv || (gok && gd != wd) {
			t.Fatalf("MinShifted: (%v,%v,%v) vs oracle (%v,%v,%v)", gv, gd, gok, wv, wd, wok)
		}
	}
	if f.Len() != len(o) {
		t.Fatalf("Len: %d vs oracle %d", f.Len(), len(o))
	}
}

// TestDifferentialVsModel drives the flat frontier and the map model
// with identical random extract/union/ρ-select sequences — the results
// must be byte-identical (integer keys make every float exact). CI runs
// this under -race alongside the engine equivalence tests.
func TestDifferentialVsModel(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 6364136223846793005))
		n := 4 + rng.Intn(60)
		f := New()
		f.Reset(n)
		o := model{}
		shift := make([]float64, n)
		for v := range shift {
			shift[v] = float64(rng.Intn(6))
		}
		var buf []int32
		steps := 200 + rng.Intn(400)
		for s := 0; s < steps; s++ {
			checkStep(t, rng, f, o, n, shift, &buf)
		}
		// Drain both and compare the tails.
		got := slices.Sorted(slices.Values(f.ExtractBelow(math.Inf(1), buf[:0])))
		if want := o.extractBelow(math.Inf(1)); !slices.Equal(got, want) {
			t.Fatalf("trial %d drain: %v vs %v", trial, got, want)
		}
	}
}

// FuzzFrontierVsModel feeds byte-string-driven operation sequences to
// the frontier and the model. Each pair of bytes is one operation;
// every query result must match the model exactly.
func FuzzFrontierVsModel(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x13, 0x07, 0x46, 0x00, 0x63, 0x01})
	f.Add([]byte{0x20, 0x1f, 0x81, 0x10, 0x42, 0x33, 0xa5, 0x00, 0x64, 0x09})
	f.Add([]byte{0xff, 0x00, 0x00, 0xff, 0x81, 0x81, 0x42, 0x42, 0x63})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 32
		fr := New()
		fr.Reset(n)
		o := model{}
		shift := make([]float64, n)
		for v := range shift {
			shift[v] = float64(v % 5)
		}
		var buf []int32
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 6 {
			case 0, 1: // push: vertex from op's high bits, key from arg
				v := int32(op>>3) % n
				key := float64(arg % 24)
				fr.Push(v, key)
				o.push(v, key)
			case 2: // drop
				v := int32(arg) % n
				fr.Drop(v)
				o.drop(v)
			case 3: // commit
				fr.Commit()
			case 4: // extract below
				d := float64(arg % 26)
				buf = fr.ExtractBelow(d, buf[:0])
				got := slices.Sorted(slices.Values(buf))
				if want := o.extractBelow(d); !slices.Equal(got, want) {
					t.Fatalf("op %d ExtractBelow(%v): %v vs %v", i, d, got, want)
				}
			default: // head + shifted min + rank query
				checkHead(t, fr, o)
				gv, gd, gsok := fr.MinShifted(shift)
				wv, wd, wsok := o.minShifted(shift)
				if gsok != wsok || gv != wv || (gsok && gd != wd) {
					t.Fatalf("op %d MinShifted: (%v,%v,%v) vs (%v,%v,%v)", i, gv, gd, gsok, wv, wd, wsok)
				}
				if fr.Len() > 0 {
					k := 1 + int(arg)%fr.Len()
					if got, want := fr.SelectKth(k), o.selectKth(k); got != want {
						t.Fatalf("op %d SelectKth(%d): %v vs %v", i, k, got, want)
					}
				}
			}
			if fr.Len() != len(o) {
				t.Fatalf("op %d Len: %d vs %d", i, fr.Len(), len(o))
			}
		}
	})
}
