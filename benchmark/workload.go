package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand/v2"

	rs "radiusstep"
)

// Fixed parameters shared by every workload.
const (
	graphSeed = 1     // generator seed of every workload's graph
	maxWeight = 10000 // integer edge weights are drawn from [1, maxWeight]
	rho       = 32    // ball size ρ used by preprocessing
	zipfS     = 1.1   // hot-set skew on rmat-hot-reload

	// A run measures in rounds. Each round takes a reference sample,
	// cold-starts from the snapshot, calls the library, runs a chunk of
	// the open and closed loops and takes a reference sample again; every
	// fourth round also sets up. A slow spell on a shared host then
	// spreads over every metric instead of landing on one, and the
	// reference taken in the same round cancels most of it (see ref.go).
	rounds       = 12
	setupEvery   = 4    // rounds per set-up; setup_s is the median of rounds/setupEvery
	openShare    = 0.75 // share of the measured time spent in the open loop
	warmRequests = 16   // untimed requests before the first open-loop chunk
	cacheVectors = 32   // distance-cache budget, in full vectors
	sampleBodies = 32   // response bodies verified per run
	coreSources  = 16   // traced solves behind the core.* metrics
	engineReps   = 3    // solves per engine behind core.solve_ms.*
	hitProbes    = 200  // warm full-vector requests behind server.hit_ms
	routeHops    = 50   // route targets lie this many BFS hops from their source
)

// workload is one traffic mix over one served graph. Names are cited by
// later changes; keep them stable. BENCHMARK.json records why each exists.
type workload struct {
	name      string
	family    string  // generator family: road or rmat
	n         int     // requested vertex count (the largest component is kept)
	order     string  // vertex order applied before preprocessing: bfs or none
	landmarks int     // farthest-point ALT landmarks packed into the snapshot
	endpoint  string  // /v1/distances or /v1/route
	topK      int     // distances shape: the k nearest, or 0 for the full vector
	library   int     // direct library calls behind solve_p50_ref, a multiple of rounds
	capacity  float64 // closed-loop requests per second measured on the calibration host
	rate      float64 // open-loop arrival rate, requests per second
	hotSet    int     // sources repeat over a Zipf-weighted hot set of this size; 0 means every source is new
	coldShare float64 // share of requests drawn outside the hot set
	reload    bool    // Registry.Reload in the middle of the closed-loop chunk of rounds 1, 5 and 9
}

// workloads are sized for a 2-CPU host. Each open-loop rate is under a
// tenth of the capacity measured there, so the server stays under a fifth
// busy even when a shared host runs at half speed: queueing would
// otherwise grow latency faster than the host slows, which the reference
// cannot cancel (see README.md).
var workloads = []workload{
	{name: "road-miss", family: "road", n: 50000, order: "bfs", endpoint: "/v1/distances", topK: 8,
		library: 36, capacity: 110, rate: 7},
	{name: "rmat-miss", family: "rmat", n: 50000, order: "none", endpoint: "/v1/distances", topK: 8,
		library: 36, capacity: 69, rate: 6},
	{name: "road-route", family: "road", n: 50000, order: "bfs", landmarks: 8, endpoint: "/v1/route",
		library: 240, capacity: 964, rate: 80},
	{name: "rmat-hot-reload", family: "rmat", n: 50000, order: "none", endpoint: "/v1/distances",
		library: 36, capacity: 661, rate: 50, hotSet: 8, coldShare: 0.005, reload: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generate builds the workload's graph in original ids. The graph is the
// same for every seed: across seeds, generated graphs differed enough to
// double the run-to-run spread, so the seed varies the traffic only.
func (w workload) generate() (*rs.Graph, error) {
	g, err := rs.GenerateByName(w.family, w.n, graphSeed)
	if err != nil {
		return nil, err
	}
	return rs.WithUniformIntWeights(g, 1, maxWeight, graphSeed+1), nil
}

// request is one query: a source, and a target on /v1/route.
type request struct {
	src, dst rs.Vertex
	body     []byte
}

// plan is everything a run sends or probes, drawn from the seed alone.
// Its hash is printed, so two runs can be shown to have used identical
// inputs.
type plan struct {
	warm, open, closed []request
	library            []request // direct library calls (solve_p50_ref)
	core               []request // traced-pass solve and route probes
	sample             map[int]bool
	hash               string
}

// newPlan draws the run's inputs on the workload's graph g.
func newPlan(w workload, seed uint64, g *rs.Graph, seconds float64) *plan {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	n := g.NumVertices()
	hops := newHopper(g)

	perm := rng.Perm(n)
	next := 0
	fresh := func() rs.Vertex { // a source not used before (wraps on tiny graphs)
		v := perm[next%n]
		next++
		return rs.Vertex(v)
	}
	hot := make([]rs.Vertex, w.hotSet)
	for i := range hot {
		hot[i] = fresh()
	}
	var zipf *rand.Zipf
	if w.hotSet > 0 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(w.hotSet-1))
	}
	draw := func() request {
		r := request{src: fresh(), dst: -1}
		if zipf != nil && rng.Float64() >= w.coldShare {
			r.src = hot[zipf.Uint64()]
		}
		if w.endpoint == "/v1/route" {
			r.dst = hops.at(r.src, routeHops, rng)
		}
		r.body = w.body(r)
		return r
	}
	draws := func(k int) []request {
		out := make([]request, k)
		for i := range out {
			out[i] = draw()
		}
		return out
	}

	p := &plan{sample: make(map[int]bool)}
	if w.hotSet > 0 {
		// Warm-up fills the cache with the whole hot set.
		for _, s := range hot {
			p.warm = append(p.warm, request{src: s, dst: -1, body: w.body(request{src: s})})
		}
	} else {
		p.warm = draws(warmRequests)
	}
	p.open = draws(max(rounds, int(math.Round(w.rate*seconds*openShare))))
	// Room for twice the calibrated capacity.
	p.closed = draws(int(w.capacity*2*seconds*(1-openShare)) + 100)
	p.library = draws(w.library)
	p.core = draws(coreSources)
	for _, i := range rng.Perm(len(p.open))[:min(sampleBodies, len(p.open))] {
		p.sample[i] = true
	}
	p.hash = p.digest(w, seed, n)
	return p
}

// body encodes r as the endpoint's JSON request.
func (w workload) body(r request) []byte {
	m := map[string]any{"graph": w.name, "source": r.src}
	if w.endpoint == "/v1/route" {
		m["target"] = r.dst
	} else if w.topK > 0 {
		m["topk"] = w.topK
	}
	b, _ := json.Marshal(m) // a map of strings and ints always encodes
	return b
}

// digest hashes every planned input, so two runs can be shown to have
// used identical inputs.
func (p *plan) digest(w workload, seed uint64, n int) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	h.Write([]byte(w.name))
	put(seed)
	put(uint64(n))
	for _, list := range [][]request{p.warm, p.open, p.closed, p.library, p.core} {
		put(uint64(len(list)))
		for _, r := range list {
			h.Write(r.body)
		}
	}
	for i := range p.open {
		if p.sample[i] {
			put(uint64(i))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hopper draws route targets a fixed number of BFS hops from a source,
// so every route explores a ball of about the same size.
type hopper struct {
	g         *rs.Graph
	mark      []uint32
	stamp     uint32
	cur, next []rs.Vertex
}

func newHopper(g *rs.Graph) *hopper { return &hopper{g: g, mark: make([]uint32, g.NumVertices())} }

// at returns a uniformly drawn vertex h hops from src, or one from the
// farthest level when src reaches no vertex that far.
func (b *hopper) at(src rs.Vertex, h int, rng *rand.Rand) rs.Vertex {
	b.stamp++
	b.mark[src] = b.stamp
	b.cur = append(b.cur[:0], src)
	for d := 0; d < h; d++ {
		b.next = b.next[:0]
		for _, u := range b.cur {
			adj, _ := b.g.Neighbors(u)
			for _, v := range adj {
				if b.mark[v] != b.stamp {
					b.mark[v] = b.stamp
					b.next = append(b.next, v)
				}
			}
		}
		if len(b.next) == 0 {
			break
		}
		b.cur, b.next = b.next, b.cur
	}
	return b.cur[rng.IntN(len(b.cur))]
}
