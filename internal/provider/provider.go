// Package provider implements Contory's CxtProvider components (§4.3): the
// workers that accomplish context provisioning for one (possibly merged)
// query each.
//
//   - LocalCxtProvider: local sensors, integrated in the device or
//     accessible via BT (e.g. a BT-GPS receiver), pulled periodically.
//   - AdHocCxtProvider: distributed provisioning in ad hoc networks, over
//     BT (one-hop) or WiFi Smart Messages (multi-hop).
//   - InfraCxtProvider: remote context infrastructures over UMTS.
//
// The package also provides the CxtPublisher (publishing context items in
// ad hoc networks with public or authenticated access) and the
// CxtAggregator (combining items collected from one or more providers).
//
// Based on the EVERY and EVENT clauses, providers offer three modes of
// interaction: on-demand, periodic and event-based queries.
package provider

import (
	"errors"
	"sync"

	"contory/internal/cxt"
	"contory/internal/query"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// Errors shared by providers.
var (
	// ErrStopped reports an operation on a stopped provider.
	ErrStopped = errors.New("provider: stopped")
	// ErrNoSource reports that the provider has no usable context source.
	ErrNoSource = errors.New("provider: no usable context source")
)

// Sink receives the items a provider collects.
type Sink func(cxt.Item)

// DoneFunc is invoked once when a provider's on-demand round completes: its
// one retrieval was answered, failed or timed out. A query's DURATION and
// SAMPLES budget are the ContextFactory's to enforce; a periodic or
// event-based provider streams until it is stopped.
type DoneFunc func()

// Provider is a running context provisioning worker. Each CxtProvider is
// assigned to exactly one (single or merged) query at a time.
type Provider interface {
	// Start begins provisioning.
	Start() error
	// Stop halts provisioning; idempotent.
	Stop()
	// UpdateQuery replaces the provider's query after a merge or a
	// re-narrowing; the provider adapts its filters and, when the EVERY
	// changed, its periodic round without restarting.
	UpdateQuery(q *query.Query)
}

// base carries what all providers share: the stored query, the sink, the
// one armed round, the release hook, and the provider's trace span (nil
// when tracing is off; every span operation is nil-safe).
type base struct {
	clock vclock.Clock
	span  *tracing.Span // the facade's "assign" span for this provider

	mu      sync.Mutex
	q       *query.Query
	sink    Sink
	onDone  DoneFunc
	stopped bool
	// round is the provider's one armed timer: its on-demand round or its
	// periodic or event-poll tick. tick is the periodic round's callback,
	// kept so UpdateQuery can re-arm it at a new EVERY; nil for other
	// rounds.
	round *vclock.Timer
	tick  func()
	// release frees what Start acquired beyond the round (a GPS stream, a
	// Fuego subscription); stop runs it once, whichever path stops.
	release func()
}

// newBase keeps q without copying it: queries are shared read-only (see
// query.Query).
func newBase(clock vclock.Clock, q *query.Query, sink Sink, onDone DoneFunc, span *tracing.Span) base {
	return base{clock: clock, span: span, q: q, sink: sink, onDone: onDone}
}

// liveQuery returns the stored query without cloning it, for the
// provider's own per-round reads. UpdateQuery replaces the stored query
// wholesale and nothing mutates it in place (see query.Query), so callers
// may read the result freely but must never modify it.
func (b *base) liveQuery() *query.Query {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q
}

// UpdateQuery implements Provider. The query is shared read-only like the
// one newBase keeps. A periodic round whose EVERY changed is re-armed at
// the new period: its first tick fires one new period after the update.
func (b *base) UpdateQuery(q *query.Query) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rearm := b.tick != nil && q.Every != b.q.Every
	b.q = q
	if rearm {
		b.round.Stop()
		b.round = b.clock.Every(q.Every, b.tick)
	}
}

// arm makes t the provider's round, or stops it when the provider has
// already stopped.
func (b *base) arm(t *vclock.Timer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		t.Stop()
		return
	}
	b.round = t
}

// armEvery arms the periodic round: fn runs every EVERY of the query in
// force, following UpdateQuery.
func (b *base) armEvery(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return
	}
	b.round, b.tick = b.clock.Every(b.q.Every, fn), fn
}

// onRelease sets the hook the provider's stop runs, or runs it now when
// the provider has already stopped.
func (b *base) onRelease(fn func()) {
	b.mu.Lock()
	if !b.stopped {
		b.release = fn
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	fn()
}

// Stop implements Provider.
func (b *base) Stop() { b.stop() }

// stop halts the provider: it stops the round and runs the release hook
// outside b.mu. Only the first call does so; stop reports whether this
// call was it.
func (b *base) stop() bool {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return false
	}
	b.stopped = true
	b.round.Stop()
	release := b.release
	b.round, b.tick, b.release = nil, nil, nil
	b.mu.Unlock()
	if release != nil {
		release()
	}
	return true
}

// isStopped reports the provider's lifecycle state.
func (b *base) isStopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopped
}

// finish ends an on-demand round: the provider stops and, unless another
// path stopped it first, fires the completion callback.
func (b *base) finish() {
	if b.stop() && b.onDone != nil {
		b.onDone()
	}
}

// emit delivers an item that already passed the provider-side filters,
// unless the provider has stopped.
func (b *base) emit(it cxt.Item) {
	if !b.isStopped() && b.sink != nil {
		b.sink(it)
	}
}

// accepts applies the provider-side WHERE and FRESHNESS filters.
func (b *base) accepts(it cxt.Item) bool {
	return b.liveQuery().Matches(it, b.clock.Now())
}
