package core

import (
	"errors"
	"sync/atomic"
)

// Cancellation errors returned by a solve whose Params.Probe fired. They
// are sentinel values (compare with errors.Is) so the serving layer can
// map them onto distinct HTTP statuses: a deadline is the server's
// fault-budget expiring (504-class), a cancel is the caller giving up
// (client-gone class).
var (
	// ErrCanceled reports that the solve was cooperatively canceled via
	// its Probe before completing. The distance vector is not returned.
	ErrCanceled = errors.New("core: solve canceled")
	// ErrDeadline reports that the solve's deadline expired before it
	// completed. The distance vector is not returned.
	ErrDeadline = errors.New("core: solve deadline exceeded")
)

// Probe fire causes. Zero (probeLive) must be the ready state so a
// zero-valued Probe is live.
const (
	probeLive uint32 = iota
	probeCanceled
	probeDeadline
)

// Probe is the cooperative-cancellation seam between a long-running
// solve and the request lifecycle around it: the driver (and every relax
// kernel) polls the probe — once per step, once per substep, and every
// ~probeArcInterval scanned arcs inside a substep — and unwinds with a
// typed error when it has fired. The poll is one atomic load, and a nil
// probe costs a single pointer comparison per site, so the
// steady-state solve path (Params.Probe == nil) keeps its zero-overhead
// and zero-allocation guarantees.
//
// A Probe is single-use: it latches the first cause fired (Cancel or
// Expire) and ignores later ones. Aborting a solve mid-substep leaves
// the pooled Workspace in a consistent state — every per-solve buffer is
// re-prepared on the next solve — so pooling works unchanged across
// canceled solves.
type Probe struct {
	state atomic.Uint32
}

// Cancel fires the probe with the canceled cause (caller went away).
// The first cause to fire wins; safe for concurrent use.
func (p *Probe) Cancel() { p.state.CompareAndSwap(probeLive, probeCanceled) }

// Expire fires the probe with the deadline cause (time budget spent).
// The first cause to fire wins; safe for concurrent use.
func (p *Probe) Expire() { p.state.CompareAndSwap(probeLive, probeDeadline) }

// Fired reports whether the probe has fired. Safe on a nil receiver,
// which is the hot path: one pointer comparison, no atomic.
func (p *Probe) Fired() bool { return p != nil && p.state.Load() != probeLive }

// Err returns the typed error for the fired cause, or nil while the
// probe is live (or nil itself).
func (p *Probe) Err() error {
	if p == nil {
		return nil
	}
	switch p.state.Load() {
	case probeCanceled:
		return ErrCanceled
	case probeDeadline:
		return ErrDeadline
	}
	return nil
}

// probeArcInterval is the scanned-arc granularity of mid-substep probe
// polls in the scalar push kernel (the parallel kernels poll at claim
// granularity instead, which is the same order of magnitude). Small
// enough that a multi-million-arc substep on a huge graph notices a
// cancel in well under a millisecond of extra work, large enough that
// the poll branch vanishes against the relaxation work between polls.
const probeArcInterval = 8192
