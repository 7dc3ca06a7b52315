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

// DoneFunc is invoked once when a provider's query lifetime (DURATION)
// elapses or its sample budget is exhausted.
type DoneFunc func()

// Provider is a running context provisioning worker. Each CxtProvider is
// assigned to exactly one (single or merged) query at a time.
type Provider interface {
	// ID identifies the provider within its facade.
	ID() string
	// Query returns the provider's current (possibly merged) query.
	Query() *query.Query
	// UpdateQuery replaces the provider's query after a merge; the
	// provider adapts its rate and filters without restarting.
	UpdateQuery(q *query.Query)
	// Start begins provisioning.
	Start() error
	// Stop halts provisioning; idempotent.
	Stop()
	// Delivered returns how many items the provider has emitted.
	Delivered() int
}

// base carries the lifecycle shared by all providers: query storage,
// duration/sample accounting, timers, the sink, and the provider's trace
// span (nil when tracing is off; every span operation is nil-safe).
type base struct {
	id    string
	clock vclock.Clock
	span  *tracing.Span // the facade's "assign" span for this provider

	mu        sync.Mutex
	q         *query.Query
	sink      Sink
	onDone    DoneFunc
	stopped   bool
	doneFired bool
	delivered int32
	// timers are the armed timers Stop cancels. A provider arms one or
	// two (its DURATION and its round), so the slice starts on the
	// inline two-slot array and only a third timer moves it to the heap.
	timers   []*vclock.Timer
	timerBuf [2]*vclock.Timer
	spans    []*tracing.Span // long-lived operation spans, ended on stop
}

// newBase keeps q without copying it: queries are shared read-only (see
// query.Query).
func newBase(id string, clock vclock.Clock, q *query.Query, sink Sink, onDone DoneFunc) base {
	return base{id: id, clock: clock, q: q, sink: sink, onDone: onDone}
}

// ID implements Provider.
func (b *base) ID() string { return b.id }

// Query implements Provider.
func (b *base) Query() *query.Query {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q.Clone()
}

// liveQuery returns the stored query without cloning it, for the
// provider's own per-round reads. setQuery replaces the stored query
// wholesale and nothing mutates it in place (see query.Query), so callers
// may read the result freely but must never modify it.
func (b *base) liveQuery() *query.Query {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.q
}

// Delivered implements Provider.
func (b *base) Delivered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.delivered)
}

// setQuery stores a replacement query, shared read-only like the one
// newBase keeps.
func (b *base) setQuery(q *query.Query) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.q = q
}

// track registers a timer for cleanup on Stop.
func (b *base) track(t *vclock.Timer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		t.Stop()
		return
	}
	if b.timers == nil {
		b.timers = b.timerBuf[:0]
	}
	b.timers = append(b.timers, t)
}

// trackSpan registers a long-lived operation span (a GPS stream, a BT link)
// so it is closed when the provider stops, whichever path stops it.
func (b *base) trackSpan(sp *tracing.Span) {
	if sp == nil {
		return
	}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		sp.End()
		return
	}
	b.spans = append(b.spans, sp)
	b.mu.Unlock()
}

// Stop implements Provider.
func (b *base) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopLocked()
}

func (b *base) stopLocked() {
	if b.stopped {
		return
	}
	b.stopped = true
	for _, t := range b.timers {
		t.Stop()
	}
	b.timers = nil
	b.timerBuf = [2]*vclock.Timer{}
	for _, sp := range b.spans {
		sp.End()
	}
	b.spans = nil
}

// isStopped reports the provider's lifecycle state.
func (b *base) isStopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopped
}

// armDuration schedules the DURATION-based shutdown for time-limited
// queries; sample-limited queries finish via emit's accounting.
func (b *base) armDuration() {
	q := b.liveQuery()
	if q.Duration.IsSamples() || q.Duration.Time <= 0 {
		return
	}
	b.track(b.clock.After(q.Duration.Time, b.finish))
}

// finish stops the provider and fires the completion callback once.
func (b *base) finish() {
	b.mu.Lock()
	if b.doneFired {
		b.mu.Unlock()
		return
	}
	b.doneFired = true
	b.stopLocked()
	onDone := b.onDone
	b.mu.Unlock()
	if onDone != nil {
		onDone()
	}
}

// emit delivers an item that already passed the provider-side filters,
// handling sample-budget accounting.
func (b *base) emit(it cxt.Item) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.delivered++
	budget := 0
	if b.q.Duration.IsSamples() {
		budget = b.q.Duration.Samples
	}
	exhausted := budget > 0 && int(b.delivered) >= budget
	sink := b.sink
	b.mu.Unlock()
	if sink != nil {
		sink(it)
	}
	if exhausted {
		b.finish()
	}
}

// accepts applies the provider-side WHERE and FRESHNESS filters.
func (b *base) accepts(it cxt.Item) bool {
	return b.liveQuery().Matches(it, b.clock.Now())
}
