package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"contory/internal/access"
	"contory/internal/audit"
	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/monitor"
	"contory/internal/policy"
	"contory/internal/provider"
	"contory/internal/qos"
	"contory/internal/query"
	"contory/internal/repo"
	"contory/internal/simnet"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// Client is the application-side interface of §4.4: applications implement
// it to receive collected context items, error notifications, and access-
// control decisions.
type Client interface {
	// ReceiveCxtItem handles the reception of a collected context item.
	ReceiveCxtItem(item cxt.Item)
	// InformError is called by Contory modules on malfunction or failure.
	InformError(msg string)
	// MakeDecision is invoked by the AccessController to grant or block
	// interaction with an external entity (high-security mode).
	MakeDecision(msg string) bool
}

// Factory errors.
var (
	ErrUnknownQuery    = errors.New("core: unknown query id")
	ErrNoMechanism     = errors.New("core: no provisioning mechanism available for query")
	ErrNotRegistered   = errors.New("core: client is not a registered context server")
	ErrNilClient       = errors.New("core: nil client")
	ErrAlreadyAssigned = errors.New("core: query already assigned")
)

// SwitchEvent records one dynamic strategy switch (Fig. 5).
type SwitchEvent struct {
	At      time.Time
	QueryID string
	From    Mechanism
	To      Mechanism
	Reason  string
}

// InfraOpStoreItem is the infrastructure operation used by storeCxtItem to
// persist complete logs remotely.
const InfraOpStoreItem = "storeCxtItem"

// activeQuery is the QueryManager's record of one submitted query. It
// embeds the Subscription handed to the caller (the query's id and
// factory), so a submission allocates the record and the handle as one
// object. The record fits the 128-byte size class: the counters are
// narrow, the preferences and flags are inline, and a Multi query's
// further mechanisms live in Factory.multi.
type activeQuery struct {
	Subscription
	q         *query.Query
	client    Client
	span      *tracing.Span // root span of the query's trace (nil = untraced)
	expiry    *vclock.Timer
	probe     *vclock.Timer
	cacheTick *vclock.Timer // EVERY-period refresh while cache-served
	submitted time.Time
	delivered int32
	cacheHits int32 // answers served from the answer cache
	// mech is the (primary) serving mechanism.
	mech  Mechanism
	prefs mechList
	// qosLive marks a query occupying a QoS live-provisioning slot;
	// degraded marks one the QoS plane downgraded to stale-cache service
	// (cache lookups then relax the FRESHNESS bound to the type's TTL).
	qosLive  bool
	degraded bool
}

// mechList is a query's eligible mechanisms, most preferred first. There
// are at most the three facades, so the list is held inline.
type mechList struct {
	m [3]Mechanism
	n uint8
}

// add appends a mechanism to the list.
func (l *mechList) add(m Mechanism) {
	l.m[l.n] = m
	l.n++
}

// all returns the listed mechanisms, in preference order.
func (l *mechList) all() []Mechanism { return l.m[:l.n] }

// Factory is the ContextFactory (§4.3): the core component instantiated on
// each device and made accessible to multiple applications. It offers the
// interface to submit context queries and lets Facade components decide
// which CxtProvider classes to instantiate (the Factory Method pattern).
type Factory struct {
	dev   *Device
	clock vclock.Clock

	mu         sync.Mutex
	nextID     int
	queries    map[string]*activeQuery
	facades    map[Mechanism]*Facade
	engine     *policy.Engine
	publishers map[Client]bool
	cxtPub     *provider.CxtPublisher
	switches   []SwitchEvent
	// multi holds each live Multi query's further mechanisms, after its
	// primary one (§4.3 permits CxtProviders of different Facades on the
	// same query); nil until the first Multi submission.
	multi map[string][]Mechanism

	mergeEnabled    bool
	failoverEnabled bool
	preferBTOneHop  bool
	cacheEnabled    bool
	cacheTTL        time.Duration
	retry           RetryPolicy
	qosCfg          qos.Config
	qos             *qos.Controller
	monCancel       func()
	// qosUnstable (under mu) counts nested operations currently moving qos
	// slot/pending accounting; the audit cross-checks only run when it
	// returns to zero (see qosExitUnstable).
	qosUnstable int

	metrics *metrics.Registry
	instr   *instruments
	tracer  *tracing.Tracer
	audit   *audit.Auditor
}

// recoveryProbeInterval is how often a failed-over query probes for its
// preferred mechanism's return: BT discovery for a lost GPS device (the
// Fig. 5 power bumps of 163–292 mW are dominated by these discoveries), a
// one-hop finder for a lost ad hoc network.
const recoveryProbeInterval = 30 * time.Second

// NewFactory wires a ContextFactory onto a device. Behaviour toggles and
// the metrics registry are supplied as functional options:
//
//	core.NewFactory(dev, core.WithMerging(false), core.WithMetrics(reg))
//
// Without WithMetrics the factory instruments into a private registry,
// available via Metrics().
func NewFactory(dev *Device, opts ...Option) *Factory {
	f := &Factory{
		dev:             dev,
		clock:           dev.Clock,
		queries:         make(map[string]*activeQuery),
		facades:         make(map[Mechanism]*Facade),
		engine:          policy.NewEngine(),
		publishers:      make(map[Client]bool),
		mergeEnabled:    true,
		failoverEnabled: true,
		retry:           DefaultRetryPolicy,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(f)
		}
	}
	if f.metrics == nil {
		f.metrics = metrics.NewRegistry()
	}
	f.instr = newInstruments(f.metrics, string(dev.ID))
	f.facades[MechanismLocal] = newFacade(MechanismLocal, dev.Clock, f.makeLocal, f.deliver, f.onExpire, f.metrics, string(dev.ID), f.audit)
	f.facades[MechanismAdHoc] = newFacade(MechanismAdHoc, dev.Clock, f.makeAdHoc, f.deliver, f.onExpire, f.metrics, string(dev.ID), f.audit)
	f.facades[MechanismInfra] = newFacade(MechanismInfra, dev.Clock, f.makeInfra, f.deliver, f.onExpire, f.metrics, string(dev.ID), f.audit)
	f.cxtPub = provider.NewPublisher(dev.BT, dev.WiFi)
	if f.cacheTTL > 0 {
		dev.Repo.SetDefaultTTL(f.cacheTTL)
	}
	if f.qosCfg.Enabled {
		mon := dev.Monitor
		f.qos = qos.New(dev.Clock, f.qosCfg, func() bool {
			return mon.BatteryLevel() == monitor.LevelLow || mon.MemoryLevel() == monitor.LevelLow
		})
	}
	f.applyRetryPolicy()
	f.engine.SetEnforcer(f.enforce)
	f.monCancel = dev.Monitor.OnEvent(f.onMonitorEvent)
	dev.attachMetrics(f.metrics)
	dev.attachAudit(f.audit)
	if dev.UMTS != nil {
		dev.Repo.SetRemote(remoteStore{f: f})
	}
	return f
}

// Device returns the factory's device.
func (f *Factory) Device() *Device { return f.dev }

// Metrics returns the registry the factory instruments into.
func (f *Factory) Metrics() *metrics.Registry { return f.metrics }

// Facade returns the facade for a mechanism (for experiment harnesses).
func (f *Factory) Facade(m Mechanism) *Facade { return f.facades[m] }

// applyRetryPolicy pushes the factory-wide policy down to the
// per-mechanism references: WiFi gets the retry count, per-attempt timeout
// and backoff; BT bounds its SDP/get exchanges with the policy timeout.
// UMTS requests already carry per-call timeouts chosen by their providers,
// which the policy does not override.
func (f *Factory) applyRetryPolicy() {
	p := f.retry
	if f.dev.WiFi != nil {
		f.dev.WiFi.SetRetryPolicy(p.Attempts-1, p.Timeout, p.Backoff)
	}
	if f.dev.BT != nil && p.Timeout > 0 {
		f.dev.BT.SetRequestTimeout(p.Timeout)
	}
}

// RetryPolicy returns the factory-wide recovery policy set at construction.
func (f *Factory) RetryPolicy() RetryPolicy {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retry
}

// MergeEnabled reports whether query aggregation is currently on.
func (f *Factory) MergeEnabled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mergeEnabled
}

// FailoverEnabled reports whether dynamic strategy switching is on.
func (f *Factory) FailoverEnabled() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failoverEnabled
}

// Switches returns the strategy-switch log.
func (f *Factory) Switches() []SwitchEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]SwitchEvent, len(f.switches))
	copy(out, f.switches)
	return out
}

// ActiveQueries returns the ids of the active queries, sorted.
func (f *Factory) ActiveQueries() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.queries))
	for id := range f.queries {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// QueryMechanism reports which mechanism currently serves the query.
func (f *Factory) QueryMechanism(queryID string) (Mechanism, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	aq, ok := f.queries[queryID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownQuery, queryID)
	}
	return aq.mech, nil
}

// ProcessCxtQuery submits a context query on behalf of a client and returns
// a Subscription handle for it. The assignment follows the FROM clause,
// sensor availability and the active control policies (§4.3).
func (f *Factory) ProcessCxtQuery(q *query.Query, client Client) (*Subscription, error) {
	if err := checkSubmission("process query", q, client); err != nil {
		return nil, err
	}
	prefs := f.preferences(q)
	if prefs.n == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoMechanism, q.From.Kind)
	}
	aq := f.openQuery(q, client, prefs)
	if aq.span != nil {
		aq.span.SetAttr("duration", aq.q.Duration.String())
	}

	// Answer cache: when stored context satisfies the query, serve it with
	// zero provider work instead of assigning a mechanism.
	if f.tryServeFromCache(aq) {
		return &aq.Subscription, nil
	}

	// QoS plane: cache misses pass admission control before provisioning
	// live. Only an admit verdict falls through to mechanism assignment.
	if f.qos != nil {
		f.qosEnterUnstable()
		defer f.qosExitUnstable()
		if sub, err, handled := f.qosGate(aq); handled {
			return sub, err
		}
	}

	mech, err := f.submitFirst(aq)
	if err == nil {
		f.register(aq, mech, "", metrics.DetailArgs{})
		return &aq.Subscription, nil
	}
	if aq.qosLive {
		// Admission succeeded but no mechanism could serve: hand the live
		// slot back so the failure does not leak provisioning capacity.
		f.qosDone(aq.id)
		f.qosDispatch()
	}
	f.reject(aq, err)
	return nil, fmt.Errorf("core: assign query: %w", err)
}

// ProcessCxtQueryMulti assigns one query to several provisioning
// mechanisms simultaneously (§4.3: "CxtProviders of different Facades can
// be assigned to the same query"). Applications use this to combine
// results from multiple context sources — typically through a
// CxtAggregator — to relieve the uncertainty of any single source. With no
// explicit mechanisms, every supported one is used; a mechanism listed
// twice is used once. Multi-assigned queries bypass the answer cache and
// QoS admission, and do not participate in failover (they are already
// redundant).
func (f *Factory) ProcessCxtQueryMulti(q *query.Query, client Client, mechs ...Mechanism) (*Subscription, error) {
	if err := checkSubmission("process multi query", q, client); err != nil {
		return nil, err
	}
	var distinct []Mechanism
	for _, m := range mechs {
		if !slices.Contains(distinct, m) {
			distinct = append(distinct, m)
		}
	}
	if len(distinct) == 0 {
		for _, m := range allMechanisms {
			if f.mechanismSupported(m, q) {
				distinct = append(distinct, m)
			}
		}
	}
	aq := f.openQuery(q, client, mechList{})
	aq.span.SetAttr("multi", "true")

	var assigned []Mechanism
	lastErr := ErrNoMechanism
	for _, mech := range distinct {
		if err := f.trySubmit(aq, mech); err != nil {
			lastErr = err
			continue
		}
		assigned = append(assigned, mech)
	}
	if len(assigned) == 0 {
		f.reject(aq, lastErr)
		return nil, fmt.Errorf("core: assign multi query: %w", lastErr)
	}
	extra := assigned[1:]
	if len(extra) > 0 {
		f.mu.Lock()
		if f.multi == nil {
			f.multi = make(map[string][]Mechanism)
		}
		f.multi[aq.id] = extra
		f.mu.Unlock()
	}
	f.register(aq, assigned[0], "", metrics.DetailArgs{})
	for _, mech := range extra {
		f.reportAssigned(aq.id, mech, "", metrics.DetailArgs{})
	}
	return &aq.Subscription, nil
}

// checkSubmission refuses what no query path can serve: a nil client or an
// invalid query.
func checkSubmission(op string, q *query.Query, client Client) error {
	if client == nil {
		return fmt.Errorf("core: %s: %w", op, ErrNilClient)
	}
	return query.Validate(q)
}

// openQuery is the submission prologue: it numbers the query, counts and
// ring-logs the submission, and opens the query's root span when tracing
// is on.
func (f *Factory) openQuery(q *query.Query, client Client, prefs mechList) *activeQuery {
	f.mu.Lock()
	f.nextID++
	id := numberedID("q-", f.nextID)
	f.mu.Unlock()
	aq := &activeQuery{
		Subscription: Subscription{f: f, id: id},
		q:            q.Clone(), client: client, prefs: prefs, submitted: f.clock.Now(),
	}
	aq.q.ID = id
	f.instr.submitted.Inc()
	f.instr.event(aq.submitted, id, metrics.EventSubmitted, "", string(aq.q.Select), metrics.DetailArgs{})
	if f.tracer != nil {
		aq.span = f.tracer.StartRoot(string(f.dev.ID)+"/"+id, string(f.dev.ID), f.dev.Node.Timeline())
		aq.span.SetAttr("select", string(aq.q.Select))
	}
	return aq
}

// numberedID returns prefix followed by n in decimal, built with the one
// allocation of the string itself.
func numberedID(prefix string, n int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10))
}

// trySubmit hands the query to one mechanism's facade if the mechanism is
// healthy.
func (f *Factory) trySubmit(aq *activeQuery, mech Mechanism) error {
	if !f.mechanismHealthy(mech, aq.q) {
		return fmt.Errorf("core: %s unavailable", mech)
	}
	return f.facades[mech].submit(aq.id, aq.q, f.mergeEnabled, aq.span)
}

// submitFirst walks the query's mechanism preferences and submits it to the
// first that accepts it. It returns the last refusal when none does.
func (f *Factory) submitFirst(aq *activeQuery) (Mechanism, error) {
	err := ErrNoMechanism
	for _, mech := range aq.prefs.all() {
		if err = f.trySubmit(aq, mech); err == nil {
			return mech, nil
		}
	}
	return 0, err
}

// register makes a query live under mech — a facade, the answer cache, or
// the QoS queue (MechanismPending, which names no mechanism on the span and
// has no assigned counter). It enters the query table, arms the DURATION
// expiry, tells the auditor and reports the assignment. The expiry is armed
// before any timer the caller schedules next, so at an equal virtual
// instant it fires first.
func (f *Factory) register(aq *activeQuery, mech Mechanism, detail string, args metrics.DetailArgs) {
	id := aq.id
	aq.mech = mech
	if mech != MechanismPending {
		aq.span.SetAttr("mech", mech.String())
	}
	f.mu.Lock()
	f.queries[id] = aq
	if aq.q.Duration.Time > 0 {
		aq.expiry = f.clock.After(aq.q.Duration.Time, func() { f.finishQuery(id, metrics.EventExpired) })
	}
	f.mu.Unlock()
	f.auditStarted(aq)
	if aq.expiry != nil {
		f.auditTimerArmed(id, "expiry")
	}
	f.instr.active.Add(1)
	f.reportAssigned(id, mech, detail, args)
}

// reportAssigned counts and ring-logs a query's assignment to a mechanism;
// the ring appends args to detail on read.
func (f *Factory) reportAssigned(queryID string, mech Mechanism, detail string, args metrics.DetailArgs) {
	f.instr.assigned[mech].Inc()
	f.instr.event(f.clock.Now(), queryID, metrics.EventAssigned, mech.String(), detail, args)
}

// moveTo records that a preference walk moved a registered query onto
// mech; live records whether the query now holds a QoS live slot. It
// reports false, and undoes the walk's submission, when the query was torn
// down meanwhile — cancelled inside a synchronous delivery from the new
// provider.
func (f *Factory) moveTo(aq *activeQuery, mech Mechanism, live bool) bool {
	f.mu.Lock()
	if f.queries[aq.id] != aq {
		f.mu.Unlock()
		f.facades[mech].Cancel(aq.id)
		return false
	}
	aq.mech, aq.qosLive = mech, live
	f.mu.Unlock()
	return true
}

// reject reports a submission that never went live.
func (f *Factory) reject(aq *activeQuery, err error) {
	f.instr.rejected.Inc()
	aq.span.SetAttr("error", err.Error())
	aq.span.End()
}

// QueryMechanisms reports every mechanism currently serving the query.
func (f *Factory) QueryMechanisms(queryID string) ([]Mechanism, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	aq, ok := f.queries[queryID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownQuery, queryID)
	}
	out := append([]Mechanism{aq.mech}, f.multi[queryID]...)
	return out, nil
}

// CancelCxtQuery erases an active query.
func (f *Factory) CancelCxtQuery(queryID string) {
	f.finishQuery(queryID, metrics.EventCancelled)
}

// finishQuery tears a query down; kind records why (expiry/exhaustion →
// EventExpired, everything else → EventCancelled) in the lifecycle ring.
func (f *Factory) finishQuery(queryID string, kind metrics.EventKind) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok {
		f.mu.Unlock()
		return
	}
	delete(f.queries, queryID)
	delete(f.multi, queryID)
	f.stopTimer(queryID, &aq.expiry, "expiry")
	f.stopTimer(queryID, &aq.probe, "probe")
	f.stopTimer(queryID, &aq.cacheTick, "cacheTick")
	wasPending := aq.mech == MechanismPending
	wasLive := aq.qosLive
	aq.qosLive = false
	f.mu.Unlock()
	f.cancelEverywhere(queryID)
	f.instr.active.Add(-1)
	switch kind {
	case metrics.EventExpired:
		f.instr.expired.Inc()
	default:
		kind = metrics.EventCancelled
		f.instr.cancelled.Inc()
	}
	f.instr.event(f.clock.Now(), queryID, kind, aq.mech.String(), "", metrics.DetailArgs{})
	aq.span.SetAttr("outcome", string(kind))
	aq.span.End()
	f.audit.QueryFinished(f.clock.Now(), string(f.dev.ID), queryID, string(kind),
		int(aq.delivered), int(aq.cacheHits))
	if f.qos != nil {
		f.qosEnterUnstable()
		defer f.qosExitUnstable()
		if wasPending && f.qos.Remove(queryID) {
			// Still parked: the controller dropped the entry, so the gauge
			// and the pending balance follow. A query already popped by
			// qosDispatch is accounted there instead (Remove reports false).
			f.instr.qosPending.Add(-1)
			f.audit.Add(f.clock.Now(), string(f.dev.ID), balQoSPending, -1)
		}
		if wasLive {
			f.qosDone(queryID)
			f.qosDispatch()
		}
	}
}

// stopTimer stops and clears one of a query's timers, if armed. f.mu must
// be held.
func (f *Factory) stopTimer(queryID string, t **vclock.Timer, kind string) {
	if *t != nil {
		(*t).Stop()
		*t = nil
		f.auditTimerStopped(queryID, kind)
	}
}

// cancelEverywhere cancels the query on every facade, not just the
// recorded ones: a concurrent switch may have submitted the query to a
// facade before updating aq.mech, and cancelling an unknown id is free.
func (f *Factory) cancelEverywhere(queryID string) {
	for _, mech := range allMechanisms {
		f.facades[mech].Cancel(queryID)
	}
}

// onExpire handles a facade's notification that a provider's on-demand
// round completed for one of its original queries.
func (f *Factory) onExpire(queryID string) {
	f.finishQuery(queryID, metrics.EventExpired)
}

// deliver routes a post-extracted item to its query's client, stores it in
// the local repository, and accounts sample budgets.
func (f *Factory) deliver(queryID string, it cxt.Item) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok {
		f.mu.Unlock()
		return
	}
	// Access control: external sources must be admitted.
	if it.Source.Address != "" && it.Source.Kind != cxt.SourceSensor {
		ctrl := f.dev.Access
		f.mu.Unlock()
		// Route high-security validations through the client.
		ctrl.SetDecider(func(src string) bool {
			return aq.client.MakeDecision("admit context source " + src + "?")
		})
		if ctrl.Check(it.Source.String()) != access.Allowed {
			return
		}
		f.mu.Lock()
		if _, still := f.queries[queryID]; !still {
			f.mu.Unlock()
			return
		}
	}
	first, exhausted := aq.countDelivery()
	mech := aq.mech
	f.mu.Unlock()

	f.reportDelivered(aq, mech, it, first, false)
	f.dev.Repo.Store(it)
	f.dev.Monitor.SetMemory(f.dev.Repo.MemoryBytes(), 9<<20)
	aq.client.ReceiveCxtItem(it)
	if exhausted {
		f.finishQuery(queryID, metrics.EventExpired)
	}
}

// countDelivery books one delivered item on the query and reports whether
// it was the first and whether it exhausted a SAMPLES budget. f.mu must be
// held.
func (aq *activeQuery) countDelivery() (first, exhausted bool) {
	aq.delivered++
	return aq.delivered == 1, aq.q.Duration.IsSamples() && int(aq.delivered) >= aq.q.Duration.Samples
}

// reportDelivered counts, audits and ring-logs one item handed to the
// query's client, and the query's first-item latency.
func (f *Factory) reportDelivered(aq *activeQuery, mech Mechanism, it cxt.Item, first, fromCache bool) {
	now := f.clock.Now()
	f.instr.delivered.Inc()
	f.audit.ItemDelivered(now, string(f.dev.ID), aq.id, fromCache)
	f.instr.event(now, aq.id, metrics.EventDelivered, mech.String(), string(it.Type), metrics.DetailArgs{})
	if first {
		f.instr.observeFirstItem(mech, now.Sub(aq.submitted))
		aq.span.MarkFirstItem()
	}
}

// SubscriptionStats describes one active query's delivery state on the
// shared provisioning plane.
type SubscriptionStats struct {
	// Delivered is how many items the query has received so far.
	Delivered int
	// CacheHits is how many of those answers came from the answer cache.
	CacheHits int
	// CacheServed reports whether the query is currently served by the
	// answer cache (no live provider).
	CacheServed bool
	// Multiplexed reports whether the query currently shares a live
	// provider stream with at least one other query.
	Multiplexed bool
	// Stream is the id of the shared provider stream serving the query
	// ("" when cache-served or finished).
	Stream string
}

// QueryStats reports the delivery statistics of an active query; a finished
// or unknown query reports the zero value.
func (f *Factory) QueryStats(queryID string) SubscriptionStats {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok {
		f.mu.Unlock()
		return SubscriptionStats{}
	}
	st := SubscriptionStats{
		Delivered:   int(aq.delivered),
		CacheHits:   int(aq.cacheHits),
		CacheServed: aq.mech == MechanismCache,
	}
	mech := aq.mech
	f.mu.Unlock()
	if fac := f.facades[mech]; fac != nil {
		if stream, subs, ok := fac.StreamInfo(queryID); ok {
			st.Stream = stream
			st.Multiplexed = subs > 1
		}
	}
	return st
}

// Repository returns the read-only view of the device's context repository,
// so applications can inspect cached context without private imports.
func (f *Factory) Repository() repo.Reader { return f.dev.Repo }

// preferences orders the mechanisms eligible for a query. Maximum
// transparency (FROM omitted) lets the middleware choose: local sensors
// first, then the ad hoc network, then the infrastructure. Explicit FROM
// pins the mechanism; entity/region queries prefer the ad hoc network and
// fall back to the infrastructure (the WeatherWatcher pattern).
func (f *Factory) preferences(q *query.Query) mechList {
	var prefs mechList
	add := func(m Mechanism) {
		if f.mechanismSupported(m, q) {
			prefs.add(m)
		}
	}
	switch q.From.Kind {
	case query.SourceIntSensor:
		add(MechanismLocal)
	case query.SourceExtInfra:
		add(MechanismInfra)
	case query.SourceAdHoc:
		add(MechanismAdHoc)
	case query.SourceEntity, query.SourceRegion:
		add(MechanismAdHoc)
		add(MechanismInfra)
	default: // SourceAuto
		add(MechanismLocal)
		add(MechanismAdHoc)
		add(MechanismInfra)
	}
	return prefs
}

// mechanismSupported reports whether the device can in principle serve the
// query with the mechanism (references and sensors present).
func (f *Factory) mechanismSupported(m Mechanism, q *query.Query) bool {
	switch m {
	case MechanismLocal:
		if f.localUsesGPS(q) {
			return true
		}
		_, ok := f.dev.Internal.ByType(q.Select)
		return ok
	case MechanismAdHoc:
		if q.From.NumHops > 1 {
			return f.dev.WiFi != nil
		}
		return f.dev.WiFi != nil || f.dev.BT != nil
	case MechanismInfra:
		return f.dev.UMTS != nil
	default:
		return false
	}
}

// mechanismHealthy additionally consults the ResourcesMonitor.
func (f *Factory) mechanismHealthy(m Mechanism, q *query.Query) bool {
	if !f.mechanismSupported(m, q) {
		return false
	}
	mon := f.dev.Monitor
	switch m {
	case MechanismLocal:
		if f.localUsesGPS(q) {
			return !mon.Failed(string(f.dev.GPSDevice))
		}
		return true
	case MechanismAdHoc:
		if !mon.Failed("wifi") {
			return true
		}
		// WiFi is down: BT can rescue only explicit one-hop ad hoc
		// queries (BT supports no multi-hop routing and no region/entity
		// targeting, §4.3).
		return q.From.Kind == query.SourceAdHoc && q.From.NumHops <= 1 && f.dev.BT != nil
	case MechanismInfra:
		return !mon.Failed("umts")
	default:
		return false
	}
}

func (f *Factory) localUsesGPS(q *query.Query) bool {
	return f.dev.GPSDevice != "" &&
		(q.Select == cxt.TypeLocation || q.Select == cxt.TypeSpeed)
}

// makeLocal is the LocalFacade's provider maker.
func (f *Factory) makeLocal(q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error) {
	cfg := provider.LocalConfig{
		Clock: f.clock, Query: q, Sink: sink, OnDone: onDone,
		Internal: f.dev.Internal, Span: span,
	}
	if f.localUsesGPS(q) {
		cfg.BT = f.dev.BT
		cfg.GPSDevice = f.dev.GPSDevice
	}
	return provider.NewLocal(cfg)
}

// makeAdHoc is the AdHocFacade's provider maker: WiFi for multi-hop, and
// for one-hop queries WiFi by default (no 13-s inquiry) unless the
// reducePower policy or missing hardware selects BT.
func (f *Factory) makeAdHoc(q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error) {
	f.mu.Lock()
	preferBT := f.preferBTOneHop
	f.mu.Unlock()
	transport := provider.TransportWiFi
	oneHop := q.From.Kind != query.SourceAdHoc || q.From.NumHops <= 1
	switch {
	case f.dev.WiFi == nil && oneHop && f.dev.BT != nil:
		transport = provider.TransportBT
	case preferBT && oneHop && f.dev.BT != nil:
		transport = provider.TransportBT
	case f.dev.WiFi == nil:
		return nil, fmt.Errorf("%w: no wifi reference for multi-hop ad hoc", provider.ErrNoSource)
	}
	return provider.NewAdHoc(provider.AdHocConfig{
		Clock: f.clock, Query: q, Sink: sink, OnDone: onDone,
		Transport: transport, BT: f.dev.BT, WiFi: f.dev.WiFi, Span: span,
	})
}

// makeInfra is the InfraFacade's provider maker.
func (f *Factory) makeInfra(q *query.Query, sink provider.Sink, onDone provider.DoneFunc, span *tracing.Span) (provider.Provider, error) {
	return provider.NewInfra(provider.InfraConfig{
		Clock: f.clock, Query: q, Sink: sink, OnDone: onDone,
		UMTS: f.dev.UMTS, Span: span,
	})
}

// onMonitorEvent reacts to resource failures and recoveries with the
// reconfiguration strategy of §4.3: affected queries are transparently
// moved to the next available provisioning mechanism (Fig. 5), and moved
// back when the preferred resource recovers.
func (f *Factory) onMonitorEvent(ev monitor.Event) {
	switch ev.Kind {
	case monitor.EventFailure:
		f.reassignAffected(ev.Resource, "failure of "+ev.Resource)
	case monitor.EventRecovery:
		f.restorePreferred(ev.Resource)
	case monitor.EventLowPower, monitor.EventLowMemory:
		// The QoS overload detector reacts directly: halve the live-slot
		// budget, then degrade what the cache can still serve and shed the
		// costliest of the rest.
		if f.qos != nil {
			f.qos.Scale(0.5)
			f.qosShedLoad(ev.Kind.String(), 0)
		}
		f.EvaluatePolicies()
	}
	// Every event re-evaluates the policies. After a low-resource event
	// this second pass sees what the first pass's enforcement left, so
	// rules that no longer hold become inactive and can fire again.
	f.EvaluatePolicies()
}

// mechResource names the monitor resource a mechanism depends on for a
// given query.
func (f *Factory) mechResource(m Mechanism, q *query.Query) string {
	switch m {
	case MechanismLocal:
		if f.localUsesGPS(q) {
			return string(f.dev.GPSDevice)
		}
		return ""
	case MechanismAdHoc:
		return "wifi"
	case MechanismInfra:
		return "umts"
	default:
		return ""
	}
}

// reassignAffected moves every failover-eligible query whose current
// mechanism depends on the failed resource. Queries multiplexed onto the
// same provider stream are reassigned contiguously (grouped by stream, then
// by id), so all subscribers of a failed shared stream re-merge onto one
// replacement stream instead of interleaving with unrelated queries.
func (f *Factory) reassignAffected(resource, reason string) {
	f.mu.Lock()
	if !f.failoverEnabled {
		f.mu.Unlock()
		return
	}
	var affected []*activeQuery
	for _, aq := range f.queries {
		if len(aq.prefs.all()) < 2 {
			continue
		}
		if f.mechResource(aq.mech, aq.q) == resource {
			affected = append(affected, aq)
		}
	}
	f.mu.Unlock()
	streams := make(map[string]string, len(affected))
	for _, aq := range affected {
		if fac := f.facades[aq.mech]; fac != nil {
			if stream, _, ok := fac.StreamInfo(aq.id); ok {
				streams[aq.id] = stream
			}
		}
	}
	sort.Slice(affected, func(i, j int) bool {
		si, sj := streams[affected[i].id], streams[affected[j].id]
		if si != sj {
			return si < sj
		}
		return affected[i].id < affected[j].id
	})
	for _, aq := range affected {
		f.switchQuery(aq.id, reason)
	}
}

// restorePreferred switches queries back towards their preferred mechanism
// once its resource recovers.
func (f *Factory) restorePreferred(resource string) {
	f.mu.Lock()
	var candidates []*activeQuery
	for _, aq := range f.queries {
		prefs := aq.prefs.all()
		if len(prefs) < 2 || aq.mech == prefs[0] {
			continue
		}
		for _, m := range prefs {
			if m == aq.mech {
				break // current mechanism reached before the recovered one
			}
			if f.mechResource(m, aq.q) == resource {
				candidates = append(candidates, aq)
				break
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].id < candidates[j].id })
	f.mu.Unlock()
	for _, aq := range candidates {
		f.switchQuery(aq.id, "recovery of "+resource)
	}
}

// switchQuery re-runs mechanism selection for one query and migrates it if
// the choice changed.
func (f *Factory) switchQuery(queryID, reason string) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok {
		f.mu.Unlock()
		return
	}
	if aq.mech == MechanismCache || aq.mech == MechanismPending {
		// Cache-served and QoS-pending queries own no facade provider;
		// promotion and release have their own paths.
		f.mu.Unlock()
		return
	}
	from := aq.mech
	var to Mechanism
	for _, m := range aq.prefs.all() {
		if f.mechanismHealthy(m, aq.q) {
			to = m
			break
		}
	}
	if to == 0 || to == from {
		f.mu.Unlock()
		return
	}
	mergeOn := f.mergeEnabled
	f.mu.Unlock()

	f.facades[from].Cancel(queryID)
	if err := f.facades[to].submit(queryID, aq.q, mergeOn, aq.span); err != nil {
		aq.client.InformError(fmt.Sprintf("contory: switching %s to %s: %v", queryID, to, err))
		// InformError may have re-entered Cancel: only resurrect the query
		// on its old mechanism if this record is still registered.
		f.mu.Lock()
		cur, still := f.queries[queryID]
		f.mu.Unlock()
		if !still || cur != aq {
			return
		}
		// Try to re-submit on the old mechanism so the query is not lost.
		if err := f.facades[from].submit(queryID, aq.q, mergeOn, aq.span); err != nil {
			f.finishQuery(queryID, metrics.EventCancelled)
			return
		}
		// The re-submit may have multiplexed the query back onto a shared
		// stream whose provider delivered synchronously — and a subscriber's
		// Cancel in that callback can tear this record down mid-flight. Like
		// every other submit site, re-check identity and undo the attach if
		// the record changed, or the stream keeps a phantom subscriber.
		f.mu.Lock()
		cur, still = f.queries[queryID]
		f.mu.Unlock()
		if !still || cur != aq {
			f.facades[from].Cancel(queryID)
		}
		return
	}
	f.mu.Lock()
	if cur, still := f.queries[queryID]; !still || cur != aq {
		// The client cancelled (or the query exhausted) inside a delivery
		// callback the new provider fired synchronously on Submit: undo the
		// fresh registration instead of resurrecting the query.
		f.mu.Unlock()
		f.facades[to].Cancel(queryID)
		return
	}
	aq.mech = to
	f.switches = append(f.switches, SwitchEvent{
		At: f.clock.Now(), QueryID: queryID, From: from, To: to, Reason: reason,
	})
	sw := aq.span.Child("switch")
	sw.SetAttr("from", from.String())
	sw.SetAttr("to", to.String())
	sw.SetAttr("reason", reason)
	sw.End()
	// A query forced below its preferred mechanism probes for that
	// mechanism's return (the Fig. 5 recovery path); arriving back at the
	// preferred mechanism stops the probe.
	preferred := aq.prefs.all()[0]
	if aq.probe == nil && to != preferred {
		f.startRecoveryProbeLocked(aq)
	}
	if to == preferred {
		f.stopTimer(queryID, &aq.probe, "probe")
	}
	f.mu.Unlock()
	f.instr.switched.Inc()
	f.instr.event(f.clock.Now(), queryID, metrics.EventSwitched, to.String(),
		"from ", metrics.DetailArgs{From: from.String(), Reason: reason})
}

// startRecoveryProbeLocked arms the periodic probe watching for the
// query's preferred mechanism to come back: BT discovery when the query
// prefers a local BT-GPS, a one-hop finder when it prefers the ad hoc
// network. Infrastructure recovery needs no probe — the next successful
// UMTS operation (e.g. a publish) reports it. f.mu must be held.
func (f *Factory) startRecoveryProbeLocked(aq *activeQuery) {
	queryID := aq.id
	switch aq.prefs.all()[0] {
	case MechanismLocal:
		if f.localUsesGPS(aq.q) && f.dev.BT != nil {
			aq.probe = f.clock.Every(recoveryProbeInterval, func() { f.probeGPS(queryID) })
		}
	case MechanismAdHoc:
		if f.dev.WiFi != nil {
			aq.probe = f.clock.Every(recoveryProbeInterval, func() { f.probeWiFi(queryID) })
		}
	}
	if aq.probe != nil {
		f.auditTimerArmed(queryID, "probe")
	}
}

// probeGPS runs one BT discovery looking for the query's GPS device; if
// found, the monitor recovery triggers the switch back.
func (f *Factory) probeGPS(queryID string) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	dev := f.dev.GPSDevice
	f.mu.Unlock()
	if !ok || aq.mech == MechanismLocal || dev == "" {
		return
	}
	f.dev.BT.Discover(func(found []simnet.NodeID) {
		for _, id := range found {
			if id == dev {
				f.dev.Monitor.ReportRecovery(string(dev))
				return
			}
		}
	})
}

// probeWiFi runs one cheap one-hop finder while the query sits below its
// preferred ad hoc mechanism; a successful probe reports WiFi recovery to
// the monitor, which triggers the switch back.
func (f *Factory) probeWiFi(queryID string) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	var cur Mechanism
	if ok {
		cur = aq.mech
	}
	f.mu.Unlock()
	if !ok || cur == MechanismAdHoc {
		return
	}
	if !f.dev.Monitor.Failed("wifi") {
		return // recovery already observed; the monitor event moves the query
	}
	f.dev.WiFi.Probe(nil)
}

// AddControlPolicy installs a contextRule; conditions are evaluated against
// the ResourcesMonitor's attributes plus runtime counters.
func (f *Factory) AddControlPolicy(r policy.Rule) error {
	return f.engine.AddRule(r)
}

// RemoveControlPolicy removes a contextRule by name.
func (f *Factory) RemoveControlPolicy(name string) {
	f.engine.RemoveRule(name)
}

// EvaluatePolicies checks every control policy against the current device
// state, enforcing newly firing actions.
func (f *Factory) EvaluatePolicies() {
	attrs := policy.Attributes(f.dev.Monitor.Attributes())
	f.mu.Lock()
	attrs["activeQueries"] = strconv.Itoa(len(f.queries))
	f.mu.Unlock()
	f.engine.Evaluate(attrs)
}

// enforce applies a fired contextRule's action (§4.3).
func (f *Factory) enforce(r policy.Rule) {
	switch r.Action {
	case policy.ReducePower:
		f.enforceReducePower(r.Name)
		if f.qos != nil {
			// Scheduler knob: halve the live-provisioning budget so fewer
			// radio-bearing queries run concurrently while power is scarce.
			f.qos.Scale(0.5)
		}
	case policy.ReduceMemory:
		f.dev.Repo.Clear()
		f.dev.Monitor.SetMemory(0, 9<<20)
	case policy.ReduceLoad:
		if f.qos != nil {
			f.qosShedLoad("reduceLoad ("+r.Name+")", 1)
			return
		}
		f.enforceReduceLoad(r.Name)
	}
}

// enforceReducePower suspends or relocates high energy-consuming queries:
// extInfra (UMTS) queries switch to cheaper mechanisms or terminate, and
// one-hop ad hoc provisioning moves from WiFi multi-hop to BT.
func (f *Factory) enforceReducePower(ruleName string) {
	f.mu.Lock()
	f.preferBTOneHop = true
	var onInfra []*activeQuery
	for _, aq := range f.queries {
		if aq.mech == MechanismInfra {
			onInfra = append(onInfra, aq)
		}
	}
	sort.Slice(onInfra, func(i, j int) bool { return onInfra[i].id < onInfra[j].id })
	f.mu.Unlock()
	for _, aq := range onInfra {
		if len(aq.prefs.all()) > 1 {
			f.switchQuery(aq.id, "reducePower ("+ruleName+")")
			continue
		}
		aq.client.InformError("contory: query " + aq.id + " terminated by reducePower policy")
		f.finishQuery(aq.id, metrics.EventCancelled)
	}
}

// enforceReduceLoad terminates the query with the highest measured energy
// cost per delivered item — the least productive consumer — never simply
// the newest submission.
func (f *Factory) enforceReduceLoad(ruleName string) {
	ranked := f.shedOrder(false)
	if len(ranked) == 0 {
		return
	}
	victim := ranked[0]
	victim.client.InformError("contory: query " + victim.id + " terminated by reduceLoad policy")
	f.finishQuery(victim.id, metrics.EventCancelled)
}

// PublishCxtItem makes a context item accessible to external entities in
// the ad hoc network. The publisher must have registered as a context
// server (§4.4).
func (f *Factory) PublishCxtItem(client Client, item cxt.Item, opts provider.PublishOptions) error {
	f.mu.Lock()
	registered := f.publishers[client]
	f.mu.Unlock()
	if !registered {
		return fmt.Errorf("core: publish item: %w", ErrNotRegistered)
	}
	if item.Timestamp.IsZero() {
		item.Timestamp = f.clock.Now()
	}
	_, err := f.cxtPub.Publish(item, opts)
	return err
}

// EraseCxtItem withdraws a previously published item.
func (f *Factory) EraseCxtItem(t cxt.Type, transport provider.Transport) {
	f.cxtPub.Erase(t, transport)
}

// StoreCxtItem stores a context item locally and, when an infrastructure
// is reachable, also in the remote repository.
func (f *Factory) StoreCxtItem(item cxt.Item) {
	if item.Timestamp.IsZero() {
		item.Timestamp = f.clock.Now()
	}
	f.dev.Repo.StoreRemote(item, nil)
	f.dev.Monitor.SetMemory(f.dev.Repo.MemoryBytes(), 9<<20)
}

// RegisterCxtServer registers (and authenticates) a client as eligible to
// publish context items.
func (f *Factory) RegisterCxtServer(client Client) error {
	if client == nil {
		return fmt.Errorf("core: register server: %w", ErrNilClient)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishers[client] = true
	return nil
}

// DeregisterCxtServer removes a publisher registration.
func (f *Factory) DeregisterCxtServer(client Client) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.publishers, client)
}

// Close cancels every active query, stops all providers, and detaches the
// factory from the monitor's event fan-out.
func (f *Factory) Close() {
	if f.monCancel != nil {
		f.monCancel()
	}
	f.mu.Lock()
	ids := make([]string, 0, len(f.queries))
	for id := range f.queries {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	// Cancel in a fixed order: with QoS on, finishing a live query can hand
	// its slot to a parked one, so map order would change the counts.
	sort.Strings(ids)
	for _, id := range ids {
		f.finishQuery(id, metrics.EventCancelled)
	}
	for _, fac := range f.facades {
		fac.StopAll()
	}
}

// remoteStore adapts the UMTS reference to the repository's Remote
// interface: complete logs live in the infrastructure (§4.3).
type remoteStore struct {
	f *Factory
}

var _ repo.Remote = remoteStore{}

// StoreRemote implements repo.Remote.
func (r remoteStore) StoreRemote(item cxt.Item, done func(error)) {
	if r.f.dev.UMTS == nil {
		if done != nil {
			done(fmt.Errorf("core: no infrastructure reference"))
		}
		return
	}
	if _, err := r.f.dev.UMTS.Publish(InfraOpStoreItem, item); err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	if done != nil {
		done(nil)
	}
}
