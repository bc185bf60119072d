package radiusstep

import (
	"context"

	"radiusstep/internal/core"
)

// Cancellation errors returned by Solver.Solve when its context ends
// before the solve completes. They alias the core sentinels so
// errors.Is works across layers; the serving daemon maps them onto
// distinct HTTP statuses.
var (
	// ErrCanceled reports a solve aborted because its context was
	// canceled (the caller went away).
	ErrCanceled = core.ErrCanceled
	// ErrDeadline reports a solve aborted because its context's deadline
	// expired.
	ErrDeadline = core.ErrDeadline
)

// probeForContext wires a context onto a cooperative-cancellation probe:
// when ctx ends, the probe fires with the matching cause (Expire for
// DeadlineExceeded, Cancel otherwise) and the in-flight solve unwinds at
// its next poll. The returned stop releases the watcher; callers must
// invoke it once the solve returns (a deferred stop is fine — it is
// idempotent and cheap).
//
// A context that can never end (ctx.Done() == nil, e.g.
// context.Background) yields a nil probe, keeping the solve on the
// probe-free zero-overhead path with no allocation at all.
func probeForContext(ctx context.Context) (*core.Probe, func()) {
	if ctx.Done() == nil {
		return nil, func() {}
	}
	p := new(core.Probe)
	fire := func() {
		if ctx.Err() == context.DeadlineExceeded {
			p.Expire()
		} else {
			p.Cancel()
		}
	}
	if ctx.Err() != nil {
		// Already over: latch the cause now so the solve aborts before
		// its first step.
		fire()
		return p, func() {}
	}
	stop := context.AfterFunc(ctx, fire)
	return p, func() { stop() }
}
