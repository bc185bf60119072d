package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
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

// graphState is the registry's lifecycle slot for one named graph.
// Everything readers see sits in one immutable graphRecord behind rec:
// a writer (a build ending in load or Reload, the watcher scheduling a
// probe) holds mu, copies the record, and publishes the copy with one
// Store. Readers load rec and never take mu, so a slow rebuild blocks
// no reader, and never another graph's rebuild.
type graphState struct {
	name string
	cfg  GraphConfig // the spec every rebuild starts from

	mu  sync.Mutex                  // orders writers; no reader takes it
	rec atomic.Pointer[graphRecord] // nil until the first build ends
	// watching is set from the tick that starts a watcher reload until
	// that reload returns, so no later tick starts a second one.
	watching atomic.Bool
}

// graphRecord is one published lifecycle state of a graph: the serving
// epoch and the quarantine bookkeeping that health reports and the
// watcher's backoff reads. Nothing changes a published record.
type graphRecord struct {
	name  string
	entry *Entry // nil until a build succeeds

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
// succeeds. Readers (Acquire, List, Health, Counters) take no
// per-graph lock: they load published records, so none waits on a
// build, and a query keeps computing on the epoch it pinned while a
// swap publishes the next one.
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

// state looks up the lifecycle slot for name.
func (r *Registry) state(name string) (*graphState, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	gs, ok := r.graphs[name]
	return gs, ok
}

// records returns the published record of every registered graph,
// sorted by name. A graph whose first build is still running has no
// record yet and is left out.
func (r *Registry) records() []*graphRecord {
	r.mu.RLock()
	out := make([]*graphRecord, 0, len(r.graphs))
	for _, gs := range r.graphs {
		if rec := gs.rec.Load(); rec != nil {
			out = append(out, rec)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Acquire pins the current epoch of name for one query: the returned
// Entry is immutable and stays valid however many swaps follow. A
// graph that has never loaded returns ErrGraphFailed wrapping the load
// error; one whose first build is still running is unknown.
func (r *Registry) Acquire(name string) (*Entry, error) {
	var rec *graphRecord
	if gs, ok := r.state(name); ok {
		rec = gs.rec.Load()
	}
	switch {
	case rec == nil:
		return nil, fmt.Errorf("%w %q", ErrGraphUnknown, name)
	case rec.entry == nil:
		return nil, fmt.Errorf("%w: %q: %v", ErrGraphFailed, name, rec.lastErr)
	}
	return rec.entry, nil
}

// List returns the current epoch of every serving graph, sorted by
// name. Failed graphs are omitted — they have no epoch to serve — and
// show up in Health instead.
func (r *Registry) List() []*Entry {
	var out []*Entry
	for _, rec := range r.records() {
		if rec.entry != nil {
			out = append(out, rec.entry)
		}
	}
	return out
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
// two concurrent loads of one name exactly one builds, but readers
// see the graph only once the build publishes its first record.
// keepFailed decides what a failed build leaves behind: a failed
// record (LoadConfig) or nothing at all (an admin load, whose caller
// hears the error in the response).
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
	e, err := BuildEntry(cfg)
	if err != nil && !keepFailed {
		r.loadFailures.Add(1)
		r.mu.Lock()
		if r.graphs[cfg.Name] == gs { // not removed and re-registered meanwhile
			delete(r.graphs, cfg.Name)
		}
		r.mu.Unlock()
		return err
	}
	return r.publish(gs, e, err)
}

// publish ends a build of gs by storing the record that follows the
// current one: epoch e, or err counted as one more consecutive failure
// while any previous epoch keeps serving. It returns err. Caller holds
// gs.mu; the registry map lock is NOT held, so builds of different
// graphs proceed in parallel.
func (r *Registry) publish(gs *graphState, e *Entry, err error) error {
	old := gs.rec.Load()
	next := graphRecord{name: gs.name}
	if old != nil {
		next = *old
	}
	if err != nil {
		r.loadFailures.Add(1)
		next.failures++
		next.lastErr, next.lastErrAt = err, time.Now()
		gs.rec.Store(&next)
		return err
	}
	e.Epoch = r.epoch.Add(1)
	next.entry, next.failures, next.lastErr, next.nextProbe = e, 0, nil, time.Time{}
	if p := sourcePath(gs.cfg); p != "" {
		if st, serr := os.Stat(p); serr == nil {
			next.srcMtime = st.ModTime()
		}
	}
	gs.rec.Store(&next)
	if old != nil && old.entry != nil {
		r.reloads.Add(1)
		// Old-epoch cache vectors are unreachable (the key embeds the
		// epoch) but still resident; drop them now rather than waiting
		// for LRU churn.
		r.notifySwap(gs.name)
	}
	return nil
}

// Reload rebuilds a graph from its spec and swaps in a new epoch.
// In-flight queries on the old epoch finish untouched; new queries see
// the new epoch the instant the record is published. On any build or
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
	if gs.rec.Load() == nil { // its first build failed and unregistered it
		return fmt.Errorf("%w %q", ErrGraphUnknown, name)
	}
	if err := fault.Check(context.TODO(), fault.SiteReload); err != nil {
		return r.publish(gs, nil, fmt.Errorf("server: graph %q: %w", name, err))
	}
	e, err := BuildEntry(gs.cfg)
	return r.publish(gs, e, err)
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

// Health reports the lifecycle state of every graph with a published
// record, serving or not, sorted by name.
func (r *Registry) Health() []GraphHealth {
	recs := r.records()
	out := make([]GraphHealth, len(recs))
	for i, rec := range recs {
		out[i] = rec.health()
	}
	return out
}

func (rec *graphRecord) health() GraphHealth {
	h := GraphHealth{Name: rec.name, Failures: rec.failures}
	if rec.lastErr != nil {
		h.Error, h.ErrorAt, h.NextProbe = rec.lastErr.Error(), rec.lastErrAt, rec.nextProbe
		switch {
		case errors.Is(rec.lastErr, rs.ErrSnapshotTruncated):
			h.ErrorClass = "truncated"
		case errors.Is(rec.lastErr, rs.ErrSnapshotCorrupt):
			h.ErrorClass = "corrupt"
		}
	}
	switch {
	case rec.entry == nil:
		h.State = GraphFailed
	case rec.lastErr != nil:
		h.State, h.Epoch = GraphQuarantined, rec.entry.Epoch
	default:
		h.State, h.Epoch = GraphReady, rec.entry.Epoch
	}
	return h
}

// Watch polls file-backed graphs every interval until ctx ends: a
// changed source mtime triggers a reload, and a quarantined or failed
// graph is re-probed on an exponential backoff schedule (interval,
// 2·interval, 4·interval, … capped at maxBackoffFactor·interval) so a
// persistently broken file costs a bounded probe rate, not a rebuild
// attempt per tick. Each reload runs in its own goroutine, and a tick
// skips a graph whose build is running, so no graph's build holds up
// another graph's reload.
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

// probeAll runs one watcher tick. The returned WaitGroup ends when the
// reloads it started have; tests that drive ticks wait on it, and Watch
// does not.
func (r *Registry) probeAll(interval time.Duration) *sync.WaitGroup {
	r.mu.RLock()
	states := slices.Collect(maps.Values(r.graphs))
	r.mu.RUnlock()
	now := time.Now()
	var wg sync.WaitGroup
	for _, gs := range states {
		if !r.probeDue(gs, now, interval) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer gs.watching.Store(false)
			if err := r.Reload(gs.name); err != nil {
				log.Printf("graph %q: watch reload failed (retry per backoff): %v", gs.name, err)
			} else {
				log.Printf("graph %q: watch reload swapped in a new epoch", gs.name)
			}
		}()
	}
	return &wg
}

// probeDue decides, under gs.mu, whether the watcher should rebuild gs
// this tick, and when it should, publishes the time of the probe after
// it: the backoff for an unhealthy graph, one interval for a changed
// file. It skips, without waiting, a graph whose lock a build holds
// (the build publishes a fresh record for a later tick) or whose last
// watcher reload has not returned.
func (r *Registry) probeDue(gs *graphState, now time.Time, interval time.Duration) bool {
	if gs.watching.Load() || !gs.mu.TryLock() {
		return false
	}
	defer gs.mu.Unlock()
	rec := gs.rec.Load()
	if rec == nil {
		return false // a failed admin load, unregistered
	}
	next := *rec
	if rec.lastErr != nil {
		if now.Before(rec.nextProbe) {
			return false
		}
		// Schedule the next probe before attempting this one, doubling
		// per consecutive failure: a success resets nextProbe anyway.
		factor := int64(1)
		for i := 0; i < rec.failures && factor < maxBackoffFactor; i++ {
			factor <<= 1
		}
		next.nextProbe = now.Add(time.Duration(factor) * interval)
	} else {
		p := sourcePath(gs.cfg)
		if p == "" {
			return false // generated graphs have no file to watch
		}
		// A vanished file keeps serving the loaded epoch, and says
		// nothing; a later replacement shows up as a fresh mtime.
		if st, err := os.Stat(p); err != nil || !st.ModTime().After(rec.srcMtime) {
			return false
		}
		// Gate the next tick before attempting: if this reload fails, the
		// graph enters quarantine and must wait out one interval rather
		// than being rebuilt again on the very next tick.
		next.nextProbe = now.Add(interval)
	}
	gs.rec.Store(&next)
	gs.watching.Store(true)
	return true
}

// LifecycleCounters is the registry's lifecycle snapshot: the
// /v1/stats lifecycle section, and the values the lifecycle metric
// families sample at scrape time.
type LifecycleCounters struct {
	LoadFailures int64 `json:"loadFailures"`
	Reloads      int64 `json:"reloads"`
	// Quarantined counts graphs whose last build failed, serving a
	// stale epoch or none.
	Quarantined int `json:"quarantined"`
}

// Counters returns the lifecycle snapshot.
func (r *Registry) Counters() LifecycleCounters {
	c := LifecycleCounters{LoadFailures: r.loadFailures.Load(), Reloads: r.reloads.Load()}
	for _, rec := range r.records() {
		if rec.lastErr != nil {
			c.Quarantined++
		}
	}
	return c
}
