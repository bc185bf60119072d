// Package fault is the serving stack's fault-injection seam: named
// sites in production code call Check, which is a no-op (one atomic
// load and a nil comparison) until a test installs a plan. Plans can
// delay, hold, fail, or panic a site a bounded number of times, letting
// the chaos suite and the serving tests drive the HTTP server through
// slow or held solves, failing cache fills, and panicking engines
// without any test hooks leaking into the production types.
//
// The seam is process-global and guarded by an atomic pointer so
// concurrent Check calls never lock; Inject/Clear swap the whole table
// copy-on-write and are meant for test setup, not hot paths.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names used by the serving stack. Exported as constants so tests
// and production code cannot drift apart on spelling.
const (
	// SiteSolve fires on every solve path (distances, traced distances,
	// routes), after pool admission and before the solver runs, under
	// the same panic guard as the engine itself.
	SiteSolve = "solve"
	// SiteCacheFill fires after a successful solve, before the result is
	// written to the distance cache. An injected error or panic skips
	// the fill; the response is still correct.
	SiteCacheFill = "cache-fill"
	// SiteSnapshotLoad fires at the top of registry entry construction
	// (BuildEntry), before any file is opened or graph generated.
	SiteSnapshotLoad = "snapshot-load"
	// SiteReload fires at the top of a registry hot reload (admin
	// endpoint or watcher), before the rebuild starts — the seam the
	// chaos suite uses to fail a reload while the old epoch must keep
	// serving.
	SiteReload = "reload"
)

// ErrInjected is the sentinel wrapped by every injected error, so
// callers can tell a synthetic fault from a real one with errors.Is.
var ErrInjected = errors.New("fault: injected error")

// Plan describes what a site does when checked. Zero-value fields are
// inert; a plan waits out Delay, then Gate, before its Err or Panic. At
// most one of Err and Panic should be set.
type Plan struct {
	// Delay stalls the site before anything else.
	Delay time.Duration
	// Gate, when non-nil, holds the site until the channel is closed.
	Gate <-chan struct{}
	// Err makes Check return an error wrapping ErrInjected (and err).
	Err error
	// Panic makes Check panic with this message.
	Panic string
	// Limit bounds how many times the plan fires; after Limit firings
	// the site reverts to a no-op. <= 0 means unlimited.
	Limit int64
}

// armed is one installed plan plus its firing counter.
type armed struct {
	plan  Plan
	fired atomic.Int64
}

// table maps site names to armed plans. Immutable once published; the
// per-plan counters are the only mutable state.
type table struct {
	sites map[string]*armed
}

var (
	active atomic.Pointer[table]
	mu     sync.Mutex // serializes Inject/Remove/Clear (copy-on-write writers)
)

// Inject installs (or replaces) the plan for site. The plan's firing
// counter starts at zero.
func Inject(site string, p Plan) {
	mu.Lock()
	defer mu.Unlock()
	next := &table{sites: make(map[string]*armed)}
	if cur := active.Load(); cur != nil {
		for k, v := range cur.sites {
			next.sites[k] = v
		}
	}
	next.sites[site] = &armed{plan: p}
	active.Store(next)
}

// Remove uninstalls site's plan, if any.
func Remove(site string) {
	mu.Lock()
	defer mu.Unlock()
	cur := active.Load()
	if cur == nil {
		return
	}
	if _, ok := cur.sites[site]; !ok {
		return
	}
	if len(cur.sites) == 1 {
		active.Store(nil)
		return
	}
	next := &table{sites: make(map[string]*armed)}
	for k, v := range cur.sites {
		if k != site {
			next.sites[k] = v
		}
	}
	active.Store(next)
}

// Clear uninstalls every plan, restoring the production no-op state.
func Clear() {
	mu.Lock()
	defer mu.Unlock()
	active.Store(nil)
}

// Fired reports how many times site's current plan has fired (0 when no
// plan is installed).
func Fired(site string) int64 {
	cur := active.Load()
	if cur == nil {
		return 0
	}
	a, ok := cur.sites[site]
	if !ok {
		return 0
	}
	return a.fired.Load()
}

// Check runs site's installed plan, if any: it waits out the plan's
// delay and gate, then returns the plan's error or panics, counting the
// firing against the plan's limit. A wait ends early when ctx ends, and
// Check then returns ctx's error. With no table installed — the
// production state — it is a single atomic load and nil comparison.
func Check(ctx context.Context, site string) error {
	cur := active.Load()
	if cur == nil {
		return nil
	}
	a, ok := cur.sites[site]
	if !ok {
		return nil
	}
	if a.plan.Limit > 0 {
		if a.fired.Add(1) > a.plan.Limit {
			// Past the limit: undo the claim so Fired reports actual
			// firings, and revert to the no-op path.
			a.fired.Add(-1)
			return nil
		}
	} else {
		a.fired.Add(1)
	}
	if a.plan.Delay > 0 {
		t := time.NewTimer(a.plan.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if a.plan.Gate != nil {
		select {
		case <-a.plan.Gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if a.plan.Panic != "" {
		panic(fmt.Sprintf("fault: injected panic at %s: %s", site, a.plan.Panic))
	}
	if a.plan.Err != nil {
		return fmt.Errorf("%w at %s: %w", ErrInjected, site, a.plan.Err)
	}
	return nil
}
