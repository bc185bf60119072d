package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"radiusstep/internal/fault"

	rs "radiusstep"
)

// Graph lifecycle states, as reported by Registry.Health and
// GET /v1/graphs. A graph's state is derived, not stored: it falls out
// of which of the graphState fields are set.
const (
	// GraphReady: a published epoch is serving and the last load worked.
	GraphReady = "ready"
	// GraphQuarantined: the last reload failed validation, the previous
	// epoch keeps serving, and the watcher re-probes with backoff.
	GraphQuarantined = "quarantined"
	// GraphFailed: no epoch has ever loaded (degraded startup); queries
	// get 503 until a re-probe or admin reload succeeds.
	GraphFailed = "failed"
	// GraphCold: the epoch was evicted under the memory budget; the next
	// query triggers a transparent background reload.
	GraphCold = "cold"
	// GraphLoading: a cold/background reload is in flight.
	GraphLoading = "loading"
)

// Typed registry failures. The serving layer maps them to status codes:
// unknown → 404, loading/cold → 503 + Retry-After, failed → 503 with
// the quarantine cause, duplicate and not-reloadable → 409 on the admin
// surface.
var (
	// ErrGraphUnknown: no graph with that name was ever registered.
	ErrGraphUnknown = errors.New("server: unknown graph")
	// ErrGraphDuplicate: Add or LoadConfig named a graph that is
	// already registered.
	ErrGraphDuplicate = errors.New("server: duplicate graph name")
	// ErrGraphNotReloadable: Reload named a graph published through Add,
	// which has no rebuild recipe.
	ErrGraphNotReloadable = errors.New("server: graph cannot be reloaded")
	// ErrGraphReloading: the graph was evicted to cold state and a
	// background reload is (now) in flight; retry shortly.
	ErrGraphReloading = errors.New("server: graph reloading")
	// ErrGraphFailed: the graph has never produced a servable epoch; its
	// health entry carries the load error.
	ErrGraphFailed = errors.New("server: graph unavailable")
)

// graphState is the registry's mutable lifecycle record for one named
// graph. The published epoch lives in cur — an atomic pointer readers
// pin without locks — and everything else (reload config, quarantine
// bookkeeping, eviction state) sits behind the per-graph mutex so a
// slow rebuild of one graph never blocks another graph's reload, and
// never blocks any reader at all.
type graphState struct {
	name string
	cur  atomic.Pointer[Entry] // nil while failed or cold

	// lastUsed is the registry LRU clock value at the most recent
	// Acquire — the eviction order under a memory budget.
	lastUsed atomic.Int64
	// bytes is the resident-size estimate of the published epoch,
	// counted against the registry budget (0 while cold/failed).
	bytes atomic.Int64

	mu         sync.Mutex
	cfg        GraphConfig // rebuild recipe; meaningful iff reloadable
	reloadable bool        // false for entries published via Add (no recipe)
	loading    bool        // a background (cold) reload is in flight

	// Quarantine bookkeeping: consecutive build failures, the latest
	// error, and the watcher's next re-probe time (exponential backoff).
	failures  int
	lastErr   error
	lastErrAt time.Time
	nextProbe time.Time
	// srcMtime is the last observed modification time of a file-backed
	// source, so the watcher reloads exactly when the file changes.
	srcMtime time.Time
	// evicted marks a budget eviction (cold state): cur is nil but the
	// graph is healthy and reloads on demand.
	evicted bool
}

// sourcePath returns the on-disk file behind a reloadable config, or ""
// for generated graphs (which the watcher has nothing to watch).
func sourcePath(cfg GraphConfig) string {
	switch {
	case cfg.Snapshot != "":
		return cfg.Snapshot
	case cfg.File != "":
		return cfg.File
	}
	return ""
}

// Registry maps graph names to epoch-versioned solvers so multiple
// graph deployments coexist in one daemon and any of them can be
// reloaded, quarantined, evicted, or removed at runtime without
// touching the others. Readers never lock beyond the name lookup: they
// pin the current epoch with one atomic load and keep computing on it
// even while a swap publishes the next one.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphState

	// epoch is the process-wide monotonic version counter; every
	// published Entry gets the next value, across all graphs, so "newer
	// epoch" is meaningful even between different graphs' reloads.
	epoch atomic.Uint64
	// useSeq is the LRU clock: each Acquire stamps the graph with the
	// next tick, and budget eviction picks the smallest stamp.
	useSeq atomic.Int64
	// budget caps the summed resident-size estimates (0 = unlimited).
	budget atomic.Int64

	// onSwap, when set (by Server), is called with the graph name after
	// every swap, eviction, or removal — the epoch-scoped cache
	// invalidation hook. It must be cheap and must not call back into
	// the registry.
	onSwap atomic.Pointer[func(string)]

	// Lifecycle counters, read at scrape time by serverMetrics.
	loadFailures atomic.Int64 // builds that failed (startup, reload, re-probe)
	reloads      atomic.Int64 // successful epoch swaps after the first load
	evictions    atomic.Int64 // budget evictions to cold state
	coldReloads  atomic.Int64 // successful reloads out of cold state
}

func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphState)}
}

// SetBudget caps the summed resident-size estimate of all published
// epochs; exceeding it evicts least-recently-queried reloadable graphs
// to cold state. Zero (the default) disables eviction.
func (r *Registry) SetBudget(bytes int64) {
	r.budget.Store(bytes)
	if bytes > 0 {
		r.enforceBudget("")
	}
}

// OnSwap installs the cache-invalidation hook called (with the graph
// name) after every epoch swap, eviction, and removal.
func (r *Registry) OnSwap(fn func(string)) { r.onSwap.Store(&fn) }

func (r *Registry) notifySwap(name string) {
	if fn := r.onSwap.Load(); fn != nil {
		(*fn)(name)
	}
}

func (r *Registry) nextEpoch() uint64 { return r.epoch.Add(1) }

// state looks up the lifecycle record for name.
func (r *Registry) state(name string) (*graphState, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	gs, ok := r.graphs[name]
	return gs, ok
}

// Add publishes e as a new graph, rejecting duplicate names. Entries
// added this way have no rebuild recipe: they cannot be reloaded or
// budget-evicted (there is nothing to reload them from), which suits
// entries built in process from an *rs.Solver (NewSolverEntry).
func (r *Registry) Add(e *Entry) error {
	if e == nil || e.Name == "" || e.Solver == nil {
		return fmt.Errorf("server: invalid registry entry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[e.Name]; ok {
		return fmt.Errorf("%w %q", ErrGraphDuplicate, e.Name)
	}
	if e.Epoch == 0 {
		e.Epoch = r.nextEpoch()
	}
	gs := &graphState{name: e.Name}
	gs.cur.Store(e)
	gs.bytes.Store(estimateEntryBytes(e))
	r.graphs[e.Name] = gs
	return nil
}

// Get returns the current epoch of a serving graph. It reports false
// for unknown, failed, and cold graphs alike — callers that need to
// distinguish (and trigger cold reloads) use Acquire.
func (r *Registry) Get(name string) (*Entry, bool) {
	gs, ok := r.state(name)
	if !ok {
		return nil, false
	}
	e := gs.cur.Load()
	return e, e != nil
}

// Acquire pins the current epoch of name for one query: the returned
// Entry is immutable and stays valid however many swaps follow. A cold
// graph kicks off a single background reload and returns
// ErrGraphReloading (the serving layer answers 503 + Retry-After — the
// caller is never blocked on a multi-second rebuild); a graph that has
// never loaded returns ErrGraphFailed wrapping the load error.
func (r *Registry) Acquire(name string) (*Entry, error) {
	gs, ok := r.state(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrGraphUnknown, name)
	}
	if e := gs.cur.Load(); e != nil {
		gs.lastUsed.Store(r.useSeq.Add(1))
		return e, nil
	}
	gs.mu.Lock()
	// Re-check under the lock: a reload may have published between the
	// pointer load and here.
	if e := gs.cur.Load(); e != nil {
		gs.mu.Unlock()
		gs.lastUsed.Store(r.useSeq.Add(1))
		return e, nil
	}
	switch {
	case gs.loading:
		gs.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGraphReloading, name)
	case gs.evicted:
		if time.Now().Before(gs.nextProbe) {
			// A cold reload just failed; hold the backoff gate instead
			// of rebuilding once per request.
			gs.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrGraphReloading, name)
		}
		// First query against a cold graph: start the transparent
		// background reload (single-flight — loading gates duplicates).
		gs.loading = true
		gs.mu.Unlock()
		go r.reloadCold(gs)
		return nil, fmt.Errorf("%w: %q", ErrGraphReloading, name)
	default:
		err := gs.lastErr
		gs.mu.Unlock()
		if err == nil {
			err = errors.New("not loaded")
		}
		return nil, fmt.Errorf("%w: %q: %v", ErrGraphFailed, name, err)
	}
}

// List returns the current epoch of every serving graph, sorted by
// name. Failed and cold graphs are omitted — they have no epoch to
// serve — and show up in Health instead.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.graphs))
	for _, gs := range r.graphs {
		if e := gs.cur.Load(); e != nil {
			out = append(out, e)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of graphs currently serving an epoch.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, gs := range r.graphs {
		if gs.cur.Load() != nil {
			n++
		}
	}
	return n
}

// LoadConfig builds cfg's graph and publishes its first epoch. On
// failure the graph is still registered — failed, with the error in
// its health record and the watcher re-probing with backoff — so a
// daemon starting with one bad spec comes up degraded instead of dying
// (the caller decides whether a total failure is fatal). The graph is
// reloadable afterward: Reload, the watcher, and budget eviction all
// apply.
func (r *Registry) LoadConfig(cfg GraphConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("server: graph config needs a name")
	}
	gs := &graphState{name: cfg.Name, cfg: cfg, reloadable: true}
	r.mu.Lock()
	if _, ok := r.graphs[cfg.Name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w %q", ErrGraphDuplicate, cfg.Name)
	}
	r.graphs[cfg.Name] = gs
	r.mu.Unlock()

	gs.mu.Lock()
	err := r.buildLocked(gs)
	gs.mu.Unlock()
	if err == nil {
		r.enforceBudget(cfg.Name)
	}
	return err
}

// buildLocked rebuilds gs from its config and publishes the new epoch,
// or records the failure for quarantine. Caller holds gs.mu (and must
// run enforceBudget after releasing it — never under it, or two
// concurrent reloads could deadlock evicting each other); the registry
// map lock is NOT held, so concurrent loads of different graphs
// proceed in parallel and readers of this graph keep serving the old
// epoch throughout.
func (r *Registry) buildLocked(gs *graphState) error {
	e, err := BuildEntry(gs.cfg)
	if err != nil {
		r.loadFailures.Add(1)
		gs.failures++
		gs.lastErr = err
		gs.lastErrAt = time.Now()
		return err
	}
	e.Epoch = r.nextEpoch()
	if p := sourcePath(gs.cfg); p != "" {
		if st, serr := os.Stat(p); serr == nil {
			gs.srcMtime = st.ModTime()
		}
	}
	hadOld := gs.cur.Load() != nil
	gs.cur.Store(e)
	gs.bytes.Store(estimateEntryBytes(e))
	gs.failures = 0
	gs.lastErr = nil
	gs.nextProbe = time.Time{}
	wasEvicted := gs.evicted
	gs.evicted = false
	if hadOld {
		r.reloads.Add(1)
		// Old-epoch cache vectors are unreachable (the key embeds the
		// epoch) but still resident; drop them now rather than waiting
		// for LRU churn.
		r.notifySwap(gs.name)
	} else if wasEvicted {
		r.coldReloads.Add(1)
	}
	return nil
}

// Reload re-reads a graph's source and swaps in a new epoch. In-flight
// queries on the old epoch finish untouched; new queries see the new
// epoch the instant the pointer swaps. On any build or validation
// failure the old epoch keeps serving and the graph is quarantined:
// failures count up, health carries the error, and the watcher's
// re-probe backs off exponentially.
func (r *Registry) Reload(name string) error {
	gs, ok := r.state(name)
	if !ok {
		return fmt.Errorf("%w %q", ErrGraphUnknown, name)
	}
	gs.mu.Lock()
	if !gs.reloadable {
		gs.mu.Unlock()
		return fmt.Errorf("%w: %q was registered without a rebuild recipe", ErrGraphNotReloadable, name)
	}
	if ferr := fault.Check(context.TODO(), fault.SiteReload); ferr != nil {
		r.loadFailures.Add(1)
		gs.failures++
		gs.lastErr = ferr
		gs.lastErrAt = time.Now()
		gs.mu.Unlock()
		return fmt.Errorf("server: graph %q: %w", name, ferr)
	}
	err := r.buildLocked(gs)
	gs.mu.Unlock()
	if err == nil {
		r.enforceBudget(name)
	}
	return err
}

// reloadCold is the background half of a cold-graph Acquire. It runs
// without the caller waiting; queries keep getting 503 + Retry-After
// until the epoch publishes. A failed cold reload sets a backoff gate
// (nextProbe) so a query storm against a graph whose file broke while
// cold costs one rebuild attempt per backoff window, not one per
// request.
func (r *Registry) reloadCold(gs *graphState) {
	gs.mu.Lock()
	var err error
	if gs.cur.Load() == nil { // else someone already published
		if ferr := fault.Check(context.TODO(), fault.SiteReload); ferr != nil {
			r.loadFailures.Add(1)
			gs.failures++
			gs.lastErr = ferr
			gs.lastErrAt = time.Now()
			err = ferr
		} else {
			err = r.buildLocked(gs)
		}
		if err != nil {
			factor := time.Duration(1)
			for i := 1; i < gs.failures && factor < maxBackoffFactor; i++ {
				factor <<= 1
			}
			gs.nextProbe = time.Now().Add(factor * coldRetryBase)
			log.Printf("graph %q: cold reload failed (next attempt in %v): %v",
				gs.name, factor*coldRetryBase, err)
		}
	}
	gs.loading = false
	gs.mu.Unlock()
	if err == nil {
		r.enforceBudget(gs.name)
	}
}

// coldRetryBase is the base backoff between failed cold-reload
// attempts (doubling per consecutive failure up to maxBackoffFactor).
const coldRetryBase = time.Second

// Remove unregisters a graph. In-flight queries holding its last epoch
// finish normally; the name 404s immediately afterward.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	_, ok := r.graphs[name]
	delete(r.graphs, name)
	r.mu.Unlock()
	if ok {
		r.notifySwap(name)
	}
	return ok
}

// enforceBudget evicts least-recently-queried reloadable graphs to
// cold state until the summed resident estimate fits the budget. The
// graph named keep (the one just loaded) is never evicted — loading a
// graph must not immediately un-load it, even if it alone exceeds the
// budget (operators set budgets; they also get to overrule them one
// graph at a time). Non-reloadable entries are skipped: with no
// recipe, eviction would be deletion.
func (r *Registry) enforceBudget(keep string) {
	budget := r.budget.Load()
	if budget <= 0 {
		return
	}
	type candidate struct {
		gs       *graphState
		lastUsed int64
		bytes    int64
	}
	for {
		r.mu.RLock()
		var total int64
		var cands []candidate
		for _, gs := range r.graphs {
			b := gs.bytes.Load()
			total += b
			// reloadable is immutable after publication, so reading it
			// without gs.mu is safe here.
			if gs.name != keep && b > 0 && gs.reloadable && gs.cur.Load() != nil {
				cands = append(cands, candidate{gs, gs.lastUsed.Load(), b})
			}
		}
		r.mu.RUnlock()
		if total <= budget || len(cands) == 0 {
			return
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].lastUsed < cands[j].lastUsed })
		victim := cands[0].gs
		victim.mu.Lock()
		if victim.cur.Load() == nil {
			// Raced with a concurrent eviction or removal; re-collect —
			// the victim no longer carries bytes, so the loop makes
			// progress either way.
			victim.mu.Unlock()
			continue
		}
		victim.cur.Store(nil)
		victim.bytes.Store(0)
		victim.evicted = true
		victim.nextProbe = time.Time{} // evicted ≠ failed: reload immediately on demand
		victim.mu.Unlock()
		r.evictions.Add(1)
		log.Printf("graph %q: evicted under memory budget (%d bytes over)", victim.name, total-budget)
		r.notifySwap(victim.name)
	}
}

// estimateEntryBytes approximates the resident size of one epoch for
// budget accounting: the snapshot size when the graph came from one
// (the arrays mmap-free load roughly 1:1), else a CSR-shaped estimate
// from the metadata. Precision is not the point — relative order and
// magnitude are, so eviction picks sensibly.
func estimateEntryBytes(e *Entry) int64 {
	n := int64(e.Info.Vertices)
	arcs := 2 * int64(e.Info.Edges)
	est := (n+1)*8 + arcs*12 + n*8 // Off + (Adj,W) + radii
	if lm := int64(e.Info.Landmarks); lm > 0 {
		est += lm * n * 8
	}
	if e.Info.SnapshotBytes > est {
		est = e.Info.SnapshotBytes
	}
	if est <= 0 {
		est = 1 // a zero-cost entry could never be evicted nor counted
	}
	return est
}

// GraphHealth is the per-graph lifecycle record served by /v1/graphs
// and /readyz: which state the graph is in, which epoch is serving,
// and — when quarantined or failed — what went wrong and when the next
// automatic re-probe happens.
type GraphHealth struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Failures counts consecutive failed builds (resets on success).
	Failures int    `json:"failures,omitempty"`
	Error    string `json:"error,omitempty"`
	// ErrorClass distinguishes quarantine causes an operator fixes
	// differently: "truncated" (re-fetch the file) vs "corrupt"
	// (rebuild it) vs "" (other).
	ErrorClass string    `json:"errorClass,omitempty"`
	ErrorAt    time.Time `json:"errorAt,omitzero"`
	NextProbe  time.Time `json:"nextProbe,omitzero"`
	// Bytes is the resident-size estimate counted against -graph-budget.
	Bytes int64 `json:"bytes,omitempty"`
	// Reloadable reports whether the graph has a rebuild recipe (admin
	// reload, watcher, and budget eviction all require one).
	Reloadable bool `json:"reloadable"`
}

// Health reports the lifecycle state of every registered graph,
// serving or not, sorted by name.
func (r *Registry) Health() []GraphHealth {
	r.mu.RLock()
	states := make([]*graphState, 0, len(r.graphs))
	for _, gs := range r.graphs {
		states = append(states, gs)
	}
	r.mu.RUnlock()
	out := make([]GraphHealth, 0, len(states))
	for _, gs := range states {
		out = append(out, r.healthOf(gs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *Registry) healthOf(gs *graphState) GraphHealth {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	h := GraphHealth{
		Name:       gs.name,
		Failures:   gs.failures,
		Bytes:      gs.bytes.Load(),
		Reloadable: gs.reloadable,
	}
	if gs.lastErr != nil {
		h.Error = gs.lastErr.Error()
		h.ErrorAt = gs.lastErrAt
		h.NextProbe = gs.nextProbe
		switch {
		case errors.Is(gs.lastErr, rs.ErrSnapshotTruncated):
			h.ErrorClass = "truncated"
		case errors.Is(gs.lastErr, rs.ErrSnapshotCorrupt):
			h.ErrorClass = "corrupt"
		}
	}
	e := gs.cur.Load()
	switch {
	case e != nil && gs.lastErr == nil:
		h.State = GraphReady
		h.Epoch = e.Epoch
	case e != nil:
		h.State = GraphQuarantined
		h.Epoch = e.Epoch
	case gs.loading:
		h.State = GraphLoading
	case gs.evicted:
		h.State = GraphCold
	default:
		h.State = GraphFailed
	}
	return h
}

// ReadyCount reports how many graphs are serving an epoch and how many
// are registered in total — the /readyz degraded-mode inputs.
func (r *Registry) ReadyCount() (serving, total int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, gs := range r.graphs {
		if gs.cur.Load() != nil {
			serving++
		}
	}
	return serving, len(r.graphs)
}

// Watch polls file-backed graphs every interval until ctx ends: a
// changed source mtime triggers a reload, and a quarantined or failed
// graph is re-probed on an exponential backoff schedule (interval,
// 2·interval, 4·interval, … capped at maxBackoffFactor·interval) so a
// persistently broken file costs a bounded probe rate, not a rebuild
// attempt per tick.
func (r *Registry) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.probeAll(interval)
		}
	}
}

// maxBackoffFactor caps quarantine re-probe backoff at this multiple
// of the watch interval.
const maxBackoffFactor = 16

// probeAll runs one watcher tick; split from Watch so tests drive
// ticks synchronously.
func (r *Registry) probeAll(interval time.Duration) {
	r.mu.RLock()
	states := make([]*graphState, 0, len(r.graphs))
	for _, gs := range r.graphs {
		states = append(states, gs)
	}
	r.mu.RUnlock()
	now := time.Now()
	for _, gs := range states {
		if name, due := r.probeDue(gs, now, interval); due {
			if err := r.Reload(name); err != nil {
				log.Printf("graph %q: watch reload failed (retry per backoff): %v", name, err)
			} else {
				log.Printf("graph %q: watch reload swapped in a new epoch", name)
			}
		}
	}
}

// probeDue decides, under gs.mu, whether the watcher should rebuild gs
// this tick, and schedules the next backoff probe when it fires for an
// unhealthy graph.
func (r *Registry) probeDue(gs *graphState, now time.Time, interval time.Duration) (string, bool) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if !gs.reloadable || gs.loading || gs.evicted {
		return "", false
	}
	unhealthy := gs.lastErr != nil
	if unhealthy {
		if now.Before(gs.nextProbe) {
			return "", false
		}
		// Schedule the next probe before attempting this one, doubling
		// per consecutive failure: a success resets nextProbe anyway.
		factor := int64(1)
		for i := 0; i < gs.failures && factor < maxBackoffFactor; i++ {
			factor <<= 1
		}
		gs.nextProbe = now.Add(time.Duration(factor) * interval)
		return gs.name, true
	}
	p := sourcePath(gs.cfg)
	if p == "" {
		return "", false // generated graphs have no file to watch
	}
	st, err := os.Stat(p)
	if err != nil {
		// The file vanished: keep serving the loaded epoch, say nothing.
		// A later replacement shows up as a fresh mtime.
		return "", false
	}
	if !st.ModTime().After(gs.srcMtime) {
		return "", false
	}
	// Gate the next tick before attempting: if this reload fails, the
	// graph enters quarantine and must wait out one interval rather
	// than being rebuilt again on the very next tick.
	gs.nextProbe = now.Add(interval)
	return gs.name, true
}

// LifecycleCounters is the registry's monotonic lifecycle counter
// snapshot, exposed as Prometheus families and in /v1/stats.
type LifecycleCounters struct {
	LoadFailures int64 `json:"loadFailures"`
	Reloads      int64 `json:"reloads"`
	Evictions    int64 `json:"evictions"`
	ColdReloads  int64 `json:"coldReloads"`
}

// Counters returns the lifecycle counter snapshot.
func (r *Registry) Counters() LifecycleCounters {
	return LifecycleCounters{
		LoadFailures: r.loadFailures.Load(),
		Reloads:      r.reloads.Load(),
		Evictions:    r.evictions.Load(),
		ColdReloads:  r.coldReloads.Load(),
	}
}

// QuarantinedCount reports how many graphs currently carry a load
// error (quarantined or failed) — the sssp_graphs_quarantined gauge.
func (r *Registry) QuarantinedCount() int {
	r.mu.RLock()
	states := make([]*graphState, 0, len(r.graphs))
	for _, gs := range r.graphs {
		states = append(states, gs)
	}
	r.mu.RUnlock()
	n := 0
	for _, gs := range states {
		gs.mu.Lock()
		if gs.lastErr != nil {
			n++
		}
		gs.mu.Unlock()
	}
	return n
}
