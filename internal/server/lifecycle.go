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
// of whether an epoch is published and whether the last build failed.
const (
	// GraphReady: a published epoch is serving and the last load worked.
	GraphReady = "ready"
	// GraphQuarantined: the last reload failed validation, the previous
	// epoch keeps serving, and the watcher re-probes with backoff.
	GraphQuarantined = "quarantined"
	// GraphFailed: no epoch has ever loaded (degraded startup); queries
	// get 503 until a re-probe or admin reload succeeds.
	GraphFailed = "failed"
)

// Typed registry failures. The serving layer maps them to status codes:
// unknown → 404, failed → 503 with the quarantine cause, duplicate →
// 409 on the admin surface.
var (
	// ErrGraphUnknown: no graph with that name was ever registered.
	ErrGraphUnknown = errors.New("server: unknown graph")
	// ErrGraphDuplicate: LoadConfig named a graph that is already
	// registered.
	ErrGraphDuplicate = errors.New("server: duplicate graph name")
	// ErrGraphFailed: the graph has never produced a servable epoch; its
	// health entry carries the load error.
	ErrGraphFailed = errors.New("server: graph unavailable")
)

// graphState is the registry's mutable lifecycle record for one named
// graph. The published epoch lives in cur — an atomic pointer readers
// pin without locks — and everything else (the spec, quarantine
// bookkeeping) sits behind the per-graph mutex so a slow rebuild of one
// graph never blocks another graph's reload, and never blocks any
// reader at all.
type graphState struct {
	name string
	cur  atomic.Pointer[Entry] // nil until a build succeeds

	mu  sync.Mutex
	cfg GraphConfig // the spec every rebuild starts from

	// Quarantine bookkeeping: consecutive build failures, the latest
	// error, and the watcher's next re-probe time (exponential backoff).
	failures  int
	lastErr   error
	lastErrAt time.Time
	nextProbe time.Time
	// srcMtime is the last observed modification time of a file-backed
	// source, so the watcher reloads exactly when the file changes.
	srcMtime time.Time
}

// sourcePath returns the on-disk file behind a spec, or "" for
// generated graphs (which the watcher has nothing to watch).
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
// reloaded, quarantined, or removed at runtime without touching the
// others. A graph enters only through LoadConfig, and its published
// epoch changes only when a rebuild from the same spec (Reload, Watch)
// succeeds. Readers never lock beyond the name lookup: they pin the
// current epoch with one atomic load and keep computing on it even
// while a swap publishes the next one.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*graphState

	// epoch is the process-wide monotonic version counter; every
	// published Entry gets the next value, across all graphs, so "newer
	// epoch" is meaningful even between different graphs' reloads.
	epoch atomic.Uint64

	// onSwap, when set (by Server), is called with the graph name after
	// every swap or removal — the epoch-scoped cache invalidation hook.
	// It must be cheap and must not call back into the registry.
	onSwap atomic.Pointer[func(string)]

	// Lifecycle counters, read at scrape time by serverMetrics.
	loadFailures atomic.Int64 // builds that failed (startup, load, reload, re-probe)
	reloads      atomic.Int64 // successful epoch swaps after the first load
}

func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*graphState)}
}

// OnSwap installs the cache-invalidation hook called (with the graph
// name) after every epoch swap and removal.
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

// Get returns the current epoch of a serving graph. It reports false
// for unknown and failed graphs alike; Acquire tells them apart.
func (r *Registry) Get(name string) (*Entry, bool) {
	gs, ok := r.state(name)
	if !ok {
		return nil, false
	}
	e := gs.cur.Load()
	return e, e != nil
}

// Acquire pins the current epoch of name for one query: the returned
// Entry is immutable and stays valid however many swaps follow. A
// graph that has never loaded returns ErrGraphFailed wrapping the load
// error.
func (r *Registry) Acquire(name string) (*Entry, error) {
	gs, ok := r.state(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrGraphUnknown, name)
	}
	if e := gs.cur.Load(); e != nil {
		return e, nil
	}
	// Re-check under the lock: a first build holds it, and may have
	// published while this call waited.
	gs.mu.Lock()
	e, err := gs.cur.Load(), gs.lastErr
	gs.mu.Unlock()
	if e != nil {
		return e, nil
	}
	if err == nil {
		err = errors.New("not loaded")
	}
	return nil, fmt.Errorf("%w: %q: %v", ErrGraphFailed, name, err)
}

// List returns the current epoch of every serving graph, sorted by
// name. Failed graphs are omitted — they have no epoch to serve — and
// show up in Health instead.
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

// LoadConfig registers cfg's graph and builds its first epoch; it is
// the only way a graph enters the registry. On failure the graph stays
// registered — failed, with the error in its health record and the
// watcher re-probing with backoff — so a daemon starting with one bad
// spec comes up degraded instead of dying (the caller decides whether
// a total failure is fatal).
func (r *Registry) LoadConfig(cfg GraphConfig) error { return r.load(cfg, true) }

// load registers cfg's graph under its name, which must be new, and
// builds its first epoch. The name is taken before the build, so of
// two concurrent loads of one name exactly one builds. keepFailed
// decides what a failed build leaves behind: a failed graph
// (LoadConfig) or nothing (an admin load, whose caller hears the error
// in the response).
func (r *Registry) load(cfg GraphConfig, keepFailed bool) error {
	if cfg.Name == "" {
		return fmt.Errorf("server: graph config needs a name")
	}
	gs := &graphState{name: cfg.Name, cfg: cfg}
	r.mu.Lock()
	if _, ok := r.graphs[cfg.Name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w %q", ErrGraphDuplicate, cfg.Name)
	}
	r.graphs[cfg.Name] = gs
	r.mu.Unlock()

	gs.mu.Lock()
	defer gs.mu.Unlock()
	err := r.buildLocked(gs)
	if err != nil && !keepFailed {
		r.mu.Lock()
		if r.graphs[cfg.Name] == gs { // not removed and re-registered meanwhile
			delete(r.graphs, cfg.Name)
		}
		r.mu.Unlock()
	}
	return err
}

// buildLocked rebuilds gs from its spec and publishes the new epoch,
// or records the failure for quarantine. Caller holds gs.mu; the
// registry map lock is NOT held, so concurrent loads of different
// graphs proceed in parallel and readers of this graph keep serving the
// old epoch throughout.
func (r *Registry) buildLocked(gs *graphState) error {
	e, err := BuildEntry(gs.cfg)
	if err != nil {
		return r.failLocked(gs, err)
	}
	e.Epoch = r.nextEpoch()
	if p := sourcePath(gs.cfg); p != "" {
		if st, serr := os.Stat(p); serr == nil {
			gs.srcMtime = st.ModTime()
		}
	}
	old := gs.cur.Swap(e)
	gs.failures = 0
	gs.lastErr = nil
	gs.nextProbe = time.Time{}
	if old != nil {
		r.reloads.Add(1)
		// Old-epoch cache vectors are unreachable (the key embeds the
		// epoch) but still resident; drop them now rather than waiting
		// for LRU churn.
		r.notifySwap(gs.name)
	}
	return nil
}

// failLocked records a failed build of gs — the count, error and time
// that health reports and the watcher's backoff reads — and returns
// err. Caller holds gs.mu.
func (r *Registry) failLocked(gs *graphState, err error) error {
	r.loadFailures.Add(1)
	gs.failures++
	gs.lastErr = err
	gs.lastErrAt = time.Now()
	return err
}

// Reload rebuilds a graph from its spec and swaps in a new epoch.
// In-flight queries on the old epoch finish untouched; new queries see
// the new epoch the instant the pointer swaps. On any build or
// validation failure the old epoch keeps serving and the graph is
// quarantined: failures count up, health carries the error, and the
// watcher's re-probe backs off exponentially.
func (r *Registry) Reload(name string) error {
	gs, ok := r.state(name)
	if !ok {
		return fmt.Errorf("%w %q", ErrGraphUnknown, name)
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if ferr := fault.Check(context.TODO(), fault.SiteReload); ferr != nil {
		return r.failLocked(gs, fmt.Errorf("server: graph %q: %w", name, ferr))
	}
	return r.buildLocked(gs)
}

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
		Name:     gs.name,
		Failures: gs.failures,
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
	if gs.lastErr != nil {
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
}

// Counters returns the lifecycle counter snapshot.
func (r *Registry) Counters() LifecycleCounters {
	return LifecycleCounters{
		LoadFailures: r.loadFailures.Load(),
		Reloads:      r.reloads.Load(),
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
