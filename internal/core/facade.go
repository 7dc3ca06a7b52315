package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"contory/internal/audit"
	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/provider"
	"contory/internal/query"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// Mechanism identifies one of the three provisioning mechanisms, each
// fronted by its own Facade module.
type Mechanism uint8

// Mechanisms.
const (
	MechanismLocal Mechanism = iota + 1
	MechanismAdHoc
	MechanismInfra
	// MechanismCache is the answer cache of the shared provisioning plane:
	// queries whose FRESHNESS clause is satisfiable by repository items are
	// served from stored context with zero provider work. It is not backed
	// by a Facade — a cache-served query owns no provider — and promotes to
	// a real mechanism when the cache goes stale.
	MechanismCache
	// MechanismPending marks a query parked in the QoS plane's pending
	// queue: admitted in principle, but deferred until its client's token
	// is earned and a provisioning slot frees up. Like MechanismCache it
	// is not backed by a Facade; release assigns a real mechanism.
	MechanismPending
)

// String implements fmt.Stringer using the FROM-clause vocabulary.
func (m Mechanism) String() string {
	switch m {
	case MechanismLocal:
		return "intSensor"
	case MechanismAdHoc:
		return "adHocNetwork"
	case MechanismInfra:
		return "extInfra"
	case MechanismCache:
		return "cache"
	case MechanismPending:
		return "pending"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// providerMaker builds a provider for a (possibly merged) query; supplied
// by the ContextFactory so the Facade stays mechanism-agnostic. span is the
// provider's "assign" span (nil when tracing is off), under which the
// provider opens its radio-operation child spans.
type providerMaker func(q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error)

// managed is one running provider together with the original queries whose
// results are post-extracted from its stream.
type managed struct {
	id     string // the provider id
	prov   provider.Provider
	merged *query.Query
	// subs are the original queries, ordered by query ID byte-wise (as
	// sort.Strings orders them: q-10 before q-2), which is the order the
	// stream delivers to them. The slice is copy-on-write: attach and
	// detach build a new one, so a delivery reads a snapshot without
	// holding the facade lock. A new provider's slice is first, the
	// entry's own one-element array.
	subs  []subscriber
	first [1]subscriber
	span  *tracing.Span // "assign": spans the provider's lifetime
}

// subscriber is one original query post-extracted from a provider stream.
// Its query is the factory's copy, shared read-only (see query.Query).
type subscriber struct {
	id string
	q  *query.Query
}

// find returns the position of queryID in subs, or where it would be
// inserted, and whether it is there.
func (m *managed) find(queryID string) (int, bool) {
	i := sort.Search(len(m.subs), func(i int) bool { return m.subs[i].id >= queryID })
	return i, i < len(m.subs) && m.subs[i].id == queryID
}

// attach adds (or replaces) a subscriber, keeping subs in ID order.
func (m *managed) attach(queryID string, q *query.Query) {
	i, ok := m.find(queryID)
	subs := slices.Clone(m.subs)
	if ok {
		subs[i].q = q
	} else {
		subs = slices.Insert(subs, i, subscriber{id: queryID, q: q})
	}
	m.subs = subs
}

// detach removes a subscriber; it reports false when queryID is not one.
func (m *managed) detach(queryID string) bool {
	i, ok := m.find(queryID)
	if ok {
		m.subs = slices.Delete(slices.Clone(m.subs), i, i+1)
	}
	return ok
}

// Facade offers a unified interface for managing CxtProviders of one
// provisioning mechanism (the Facade design pattern of §4.3). It performs
// query aggregation — merging a newly submitted query with an active one
// when possible and post-extracting each original's results — so the
// number of active providers stays minimal.
type Facade struct {
	mechanism Mechanism
	idPrefix  string // provider ids are idPrefix and a number: "extInfra-3"
	clock     vclock.Clock
	make      providerMaker
	deliver   func(queryID string, it cxt.Item)
	onExpire  func(queryID string)

	mu     sync.Mutex
	nextID int
	// managed holds the running providers in provider-id order, byte-wise
	// (extInfra-10 before extInfra-2), the order the merge scan tries
	// them in.
	managed  []*managed
	merges   int  // successful merges (for the ablation bench)
	creates  int  // providers created
	disabled bool // reducePower can suspend a whole facade

	mMerges  *metrics.Counter
	mCreates *metrics.Counter
	mActive  *metrics.Gauge

	// Stream-multiplexer instrumentation: queries attaching to / detaching
	// from an already-running provider stream, and streams that became
	// shared (grew to two or more subscribers).
	mMuxAttach *metrics.Counter
	mMuxDetach *metrics.Counter
	mMuxShared *metrics.Counter

	// Invariant auditing: owner is the device id the audit balances are
	// keyed under; audit is nil when auditing is off (every tap is
	// nil-safe). balProviders/balSubs name the facade's two conservation
	// balances — running providers and mux subscriber attachments — which
	// must both return to zero after StopAll.
	owner        string
	audit        *audit.Auditor
	balProviders string
	balSubs      string
}

// newFacade returns a Facade for one mechanism.
func newFacade(m Mechanism, clock vclock.Clock, mk providerMaker,
	deliver func(string, cxt.Item), onExpire func(string), reg *metrics.Registry,
	owner string, aud *audit.Auditor) *Facade {
	return &Facade{
		mechanism:    m,
		idPrefix:     m.String() + "-",
		clock:        clock,
		make:         mk,
		deliver:      deliver,
		onExpire:     onExpire,
		mMerges:      reg.Counter("core.facade.merges." + m.String()),
		mCreates:     reg.Counter("core.facade.providers_created." + m.String()),
		mActive:      reg.Gauge("core.facade.active_providers." + m.String()),
		mMuxAttach:   reg.Counter("core.mux.attached." + m.String()),
		mMuxDetach:   reg.Counter("core.mux.detached." + m.String()),
		mMuxShared:   reg.Counter("core.mux.shared_streams." + m.String()),
		owner:        owner,
		audit:        aud,
		balProviders: "facade.providers." + m.String(),
		balSubs:      "mux.subs." + m.String(),
	}
}

// auditAdd moves one of the facade's conservation balances.
func (f *Facade) auditAdd(name string, delta int64) {
	f.audit.Add(f.clock.Now(), f.owner, name, delta)
}

// released accounts for stopped providers and the subscribers they carried.
func (f *Facade) released(providers, subs int) {
	f.mActive.Add(-float64(providers))
	f.auditAdd(f.balProviders, -int64(providers))
	f.auditAdd(f.balSubs, -int64(subs))
}

// findManaged returns the position of provID in f.managed, or where it
// would be inserted, and whether it is there. f.mu must be held.
func (f *Facade) findManaged(provID string) (int, bool) {
	i := sort.Search(len(f.managed), func(i int) bool { return f.managed[i].id >= provID })
	return i, i < len(f.managed) && f.managed[i].id == provID
}

// lookup returns the running provider entry provID, or nil once it is
// gone. f.mu must be held.
func (f *Facade) lookup(provID string) *managed {
	if i, ok := f.findManaged(provID); ok {
		return f.managed[i]
	}
	return nil
}

// remove drops the entry provID and reports it, or nil when it is already
// gone. f.mu must be held.
func (f *Facade) remove(provID string) *managed {
	i, ok := f.findManaged(provID)
	if !ok {
		return nil
	}
	m := f.managed[i]
	f.managed = slices.Delete(f.managed, i, i+1)
	return m
}

// Mechanism returns the facade's provisioning mechanism.
func (f *Facade) Mechanism() Mechanism { return f.mechanism }

// Stats returns how many providers were created and how many submissions
// were satisfied by merging into an existing provider.
func (f *Facade) Stats() (created, merged int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.creates, f.merges
}

// ActiveProviders returns the number of currently running providers.
func (f *Facade) ActiveProviders() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.managed)
}

// SetDisabled suspends (true) or resumes (false) provider creation; used
// by the reducePower enforcement.
func (f *Facade) SetDisabled(disabled bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.disabled = disabled
}

// ErrFacadeDisabled reports submissions to a suspended facade.
var ErrFacadeDisabled = fmt.Errorf("core: facade suspended by control policy")

// Submit assigns the query to this facade: it merges into an existing
// provider when the aggregation rules allow, otherwise it instantiates a
// new CxtProvider. mergeEnabled=false (ablation) always creates a provider.
func (f *Facade) Submit(queryID string, q *query.Query, mergeEnabled bool) error {
	return f.submit(queryID, q, mergeEnabled, nil)
}

// submit is Submit carrying the query's trace span: a new provider gets an
// "assign" child span covering its whole lifetime, a merged submission gets
// an instantaneous "assign" span marking the aggregation decision.
func (f *Facade) submit(queryID string, q *query.Query, mergeEnabled bool, parent *tracing.Span) error {
	f.mu.Lock()
	if f.disabled {
		f.mu.Unlock()
		return fmt.Errorf("core: %s %s: %w", f.mechanism, queryID, ErrFacadeDisabled)
	}
	if mergeEnabled {
		for _, m := range f.managed {
			if !query.SameCluster(m.merged, q) {
				continue
			}
			mergedQ, err := query.Merge(m.merged, q)
			if err != nil {
				continue
			}
			m.merged = mergedQ
			m.attach(queryID, q)
			m.prov.UpdateQuery(mergedQ)
			f.merges++
			subs := len(m.subs)
			owner := m.span
			f.mu.Unlock()
			f.mMerges.Inc()
			f.mMuxAttach.Inc()
			f.auditAdd(f.balSubs, 1)
			if subs == 2 {
				// The stream just became shared: the owning query's provider
				// now fans out to a second subscriber.
				f.mMuxShared.Inc()
			}
			// The subscriber joins the owning stream's trace: the attach is
			// recorded under the provider's lifetime span.
			if at := owner.Child("mux.attach"); at != nil {
				at.SetAttr("subscriber", queryID)
				at.SetAttr("subscribers", strconv.Itoa(subs))
				at.End()
			}
			sp := parent.Child("assign")
			sp.SetAttr("mech", f.mechanism.String())
			sp.SetAttr("provider", m.id)
			sp.SetAttr("merged", "true")
			sp.SetAttr("multiplexed", "true")
			sp.End()
			return nil
		}
	}
	f.nextID++
	provID := numberedID(f.idPrefix, f.nextID)
	span := parent.Child("assign")
	span.SetAttr("mech", f.mechanism.String())
	span.SetAttr("provider", provID)
	// The facade and the provider keep the factory's copy of q: nothing
	// writes a query after submission (see query.Query).
	m := &managed{
		id:     provID,
		merged: q,
		first:  [1]subscriber{{id: queryID, q: q}},
		span:   span,
	}
	m.subs = m.first[:]
	i, _ := f.findManaged(provID)
	f.managed = slices.Insert(f.managed, i, m)
	f.creates++
	f.mu.Unlock()
	f.mCreates.Inc()
	f.mActive.Add(1)
	f.auditAdd(f.balProviders, 1)
	f.auditAdd(f.balSubs, 1)

	prov, err := f.make(q, f.sinkFor(provID), f.doneFor(provID), span)
	if err != nil {
		f.removeFailed(provID)
		span.SetAttr("error", err.Error())
		span.End()
		return fmt.Errorf("core: %s facade: %w", f.mechanism, err)
	}
	f.mu.Lock()
	if cur := f.lookup(provID); cur != nil {
		cur.prov = prov
	}
	f.mu.Unlock()
	if err := prov.Start(); err != nil {
		f.removeFailed(provID)
		span.SetAttr("error", err.Error())
		span.End()
		return fmt.Errorf("core: %s facade start: %w", f.mechanism, err)
	}
	return nil
}

// removeFailed tears down the managed entry of a provider whose
// construction or Start failed. Start can re-enter the facade through a
// synchronous delivery (a client callback cancelling subscribers, even
// this entry), so the entry may already be gone — or may have gained
// subscribers by merge — and the accounting follows what is actually
// removed instead of decrementing blindly.
func (f *Facade) removeFailed(provID string) {
	f.mu.Lock()
	m := f.remove(provID)
	f.mu.Unlock()
	if m != nil {
		f.released(1, len(m.subs))
	}
}

// sinkFor returns the provider sink performing post-extraction: received
// results for the merged query are matched against each original query and
// delivered upward per query id, in subscriber order. The subscribers are
// those attached when the item arrived: one that a delivery's callback
// cancels still receives the item, one it attaches does not.
func (f *Facade) sinkFor(provID string) provider.Sink {
	return func(it cxt.Item) {
		now := f.clock.Now()
		f.mu.Lock()
		m := f.lookup(provID)
		if m == nil {
			f.mu.Unlock()
			return
		}
		subs := m.subs
		f.mu.Unlock()
		for _, s := range subs {
			if s.q.Matches(it, now) {
				f.deliver(s.id, it)
			}
		}
	}
}

// doneFor returns the provider-completion callback: the provider's
// on-demand round completed, so every remaining original expires. The
// provider has already stopped itself, releasing what it held. Once the
// entry is removed nothing attaches to or detaches from it, so its
// subscriber snapshot is final and expires as it stands.
func (f *Facade) doneFor(provID string) provider.DoneFunc {
	return func() {
		f.mu.Lock()
		m := f.remove(provID)
		f.mu.Unlock()
		if m == nil {
			return
		}
		m.span.End()
		f.released(1, len(m.subs))
		if f.onExpire != nil {
			for _, s := range m.subs {
				f.onExpire(s.id)
			}
		}
	}
}

// Cancel removes a query from the facade. When a provider loses its last
// original query it is stopped; otherwise the provider's merged query is
// re-derived from the remaining originals so over-collection stops.
func (f *Facade) Cancel(queryID string) bool {
	f.mu.Lock()
	var found *managed
	for _, m := range f.managed {
		if m.detach(queryID) {
			found = m
			break
		}
	}
	if found == nil {
		f.mu.Unlock()
		return false
	}
	if len(found.subs) == 0 {
		f.remove(found.id)
		prov := found.prov
		f.mu.Unlock()
		found.span.End()
		f.released(1, 1)
		if prov != nil {
			prov.Stop()
		}
		return true
	}
	rest := make([]*query.Query, len(found.subs))
	for i, sub := range found.subs {
		rest[i] = sub.q
	}
	if narrowed, err := query.MergeAll(rest); err == nil {
		found.merged = narrowed
		if found.prov != nil {
			found.prov.UpdateQuery(narrowed)
		}
	}
	f.mu.Unlock()
	// A refcounted detach: the shared stream keeps running for the
	// remaining subscribers.
	f.mMuxDetach.Inc()
	f.auditAdd(f.balSubs, -1)
	return true
}

// StreamInfo reports which provider stream currently serves the query and
// how many queries share it.
func (f *Facade) StreamInfo(queryID string) (streamID string, subscribers int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.managed {
		if _, has := m.find(queryID); has {
			return m.id, len(m.subs), true
		}
	}
	return "", 0, false
}

// Queries returns the ids of all queries currently served by this facade.
func (f *Facade) Queries() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, m := range f.managed {
		for _, sub := range m.subs {
			out = append(out, sub.id)
		}
	}
	sort.Strings(out)
	return out
}

// StopAll stops every provider (device shutdown or facade suspension).
// Under auditing it closes the facade's conservation balances: provider
// refcounts and mux subscriber counts must both return to zero here.
func (f *Facade) StopAll() {
	f.mu.Lock()
	ms := f.managed
	subs := 0
	for _, m := range ms {
		subs += len(m.subs)
	}
	f.managed = nil
	f.mu.Unlock()
	f.released(len(ms), subs)
	for _, m := range ms {
		m.span.End()
		if m.prov != nil {
			m.prov.Stop()
		}
	}
	now := f.clock.Now()
	f.audit.ExpectZero(now, f.owner, f.balProviders)
	f.audit.ExpectZero(now, f.owner, f.balSubs)
}
