package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"contory/internal/energy"
	"contory/internal/metrics"
	"contory/internal/qos"
	"contory/internal/query"
)

// This file wires the QoS provisioning plane (internal/qos) into the
// ContextFactory: admission control ahead of mechanism assignment,
// weighted-fair release of deferred queries, degradation of eligible
// queries to stale-cache answers, and overload shedding by measured
// energy cost. Everything runs on the virtual clock; with QoS disabled
// (the default) none of these paths execute.

// ClientIdentity is an optional Client extension giving the client a
// stable admission-control identity: each identity owns its own token
// bucket. Clients without one share the "default" bucket.
type ClientIdentity interface {
	ClientID() string
}

// ClientPriority is an optional Client extension declaring an explicit
// priority class for the client's queries; without it the class is
// derived from query attributes (qos.Classify).
type ClientPriority interface {
	QoSClass() qos.Class
}

// QoS returns the factory's QoS controller (nil when disabled); exposed
// for harnesses that assert on admission state.
func (f *Factory) QoS() *qos.Controller { return f.qos }

func clientKey(c Client) string {
	if id, ok := c.(ClientIdentity); ok {
		if k := id.ClientID(); k != "" {
			return k
		}
	}
	return "default"
}

func clientClass(c Client) qos.Class {
	if p, ok := c.(ClientPriority); ok {
		return p.QoSClass()
	}
	return qos.ClassAuto
}

// qosGate runs admission control for a cache-missed query. handled=false
// means the query was admitted and proceeds to live mechanism assignment;
// handled=true means the gate fully resolved the submission (degraded,
// deferred, or rejected) and ProcessCxtQuery returns sub/err as-is.
func (f *Factory) qosGate(aq *activeQuery) (sub *Subscription, err error, handled bool) {
	client := clientKey(aq.client)
	cls := qos.Classify(aq.q, clientClass(aq.client))
	canDegrade := f.canDegradeToCache(aq.q)
	d := f.qos.Admit(client, cls, qos.Request{
		ID:         aq.id,
		CanDegrade: canDegrade,
		Lifetime:   aq.q.Duration.Time,
	})
	if sp := aq.span.Child("qos.admit"); sp != nil {
		sp.SetAttr("verdict", d.Verdict.String())
		sp.SetAttr("class", cls.String())
		sp.SetAttr("client", client)
		if d.Reason != "" {
			sp.SetAttr("reason", d.Reason)
		}
		if d.Wait > 0 {
			sp.SetAttr("wait", d.Wait.String())
		}
		sp.End()
	}

	switch d.Verdict {
	case qos.VerdictAdmit:
		f.instr.qosAdmitted.Inc()
		aq.qosLive = true
		// Admit consumed a live slot (Controller.active++).
		f.audit.Add(f.clock.Now(), string(f.dev.ID), balQoSSlots, 1)
		return nil, nil, false
	case qos.VerdictDegrade:
		// Served stale repository answers (bounded by the type's TTL)
		// instead of provisioning live.
		aq.degraded = true
		dg := aq.span.Child("qos.degrade")
		dg.SetAttr("reason", d.Reason)
		dg.End()
		detail, args := qosDetail(d)
		f.register(aq, MechanismCache, detail, args)
		f.instr.qosDegraded.Inc()
		f.clock.Post(0, func() { f.cacheDeliver(aq.id, true) })
		return &aq.Subscription, nil, true
	case qos.VerdictDefer:
		detail, args := qosDetail(d)
		f.register(aq, MechanismPending, detail, args)
		f.instr.qosDeferred.Inc()
		f.instr.qosPending.Add(1)
		f.audit.Add(f.clock.Now(), string(f.dev.ID), balQoSPending, 1)
		// The token is earned at Wait; a dispatch then releases this (or a
		// higher-priority) entry if a provisioning slot is free.
		f.clock.Post(d.Wait, f.qosDispatch)
		return &aq.Subscription, nil, true
	default: // qos.VerdictReject
		f.instr.qosRejected.Inc()
		rejErr := fmt.Errorf("core: query %s (%s class, %s): %w", aq.id, cls, d.Reason, qos.ErrRejected)
		f.reject(aq, rejErr)
		return nil, rejErr, true
	}
}

// qosDetail is the ring detail of an admission that degrades a query to
// the cache ("degraded: <reason>") or defers it ("deferred <wait>"), in
// the parts the ring joins on read.
func qosDetail(d qos.Decision) (string, metrics.DetailArgs) {
	if d.Verdict == qos.VerdictDefer {
		return "deferred ", metrics.DetailArgs{Wait: d.Wait, Timed: true}
	}
	return "degraded: ", metrics.DetailArgs{Reason: d.Reason}
}

// canDegradeToCache reports whether a stale-cache answer could serve the
// query right now: the query may be cache-served at all and a lookup
// bounded only by the type's TTL actually hits.
func (f *Factory) canDegradeToCache(q *query.Query) bool {
	if !f.cacheEligible(q) {
		return false
	}
	_, ok := f.degradedLookup(q)
	return ok
}

// qosDispatch releases deferred queries while slots are free and lanes
// have eligible heads; called when a token is earned and when a live slot
// frees up.
func (f *Factory) qosDispatch() {
	if f.qos == nil {
		return
	}
	f.qosEnterUnstable()
	defer f.qosExitUnstable()
	for {
		id, ok := f.qos.Next()
		if !ok {
			return
		}
		// Next() moved the entry out of the pending queue and booked its
		// live slot. Account both transitions here, 1:1 with the controller,
		// so the gauge cannot drift from Controller.Pending() no matter what
		// qosRelease later decides — a query cancelled between park and
		// release used to leave the gauge stale.
		f.instr.qosPending.Add(-1)
		now := f.clock.Now()
		f.audit.Add(now, string(f.dev.ID), balQoSPending, -1)
		f.audit.Add(now, string(f.dev.ID), balQoSSlots, 1)
		f.qosRelease(id)
	}
}

// qosRelease assigns a released pending query to a live mechanism,
// walking its preferences like initial assignment. The controller already
// booked a live slot for it; failures hand the slot back.
func (f *Factory) qosRelease(queryID string) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok || aq.mech != MechanismPending {
		// Cancelled (or otherwise re-routed) between park and release: the
		// pending gauge was already reconciled in qosDispatch when Next()
		// popped the entry; only the booked slot needs handing back.
		f.mu.Unlock()
		f.qosDone(queryID)
		return
	}
	f.mu.Unlock()
	mech, err := f.submitFirst(aq)
	if err != nil {
		f.qosDone(queryID)
		aq.client.InformError("contory: query " + queryID +
			": released from qos queue but no provisioning mechanism is available")
		f.finishQuery(queryID, metrics.EventCancelled)
		return
	}
	if !f.moveTo(aq, mech, true) {
		f.qosDone(queryID)
		return
	}
	aq.span.SetAttr("mech", mech.String())
	f.instr.qosReleased.Inc()
	f.reportAssigned(queryID, mech, "released from qos queue", metrics.DetailArgs{})
}

// queryCost is the measured energy cost of a query: joules the device
// spent over the query's lifetime so far, per delivered item. All queries
// on a device share its power timeline, so the longest-lived, least
// productive queries cost the most. drawn is the device's Timeline.Joules
// now. Callers hold f.mu.
func queryCost(aq *activeQuery, drawn energy.Joules) float64 {
	return float64(drawn-aq.drawnBefore) / float64(aq.delivered+1)
}

// shedOrder ranks the queries for shedding: highest measured joules per
// delivered item first, equal costs by shedBefore. liveOnly leaves out
// the cache-served and QoS-pending queries, which hold no live provider.
func (f *Factory) shedOrder(liveOnly bool) []*activeQuery {
	drawn := f.dev.Node.Timeline().Joules()
	type costed struct {
		aq   *activeQuery
		cost float64
	}
	f.mu.Lock()
	var cs []costed
	for _, aq := range f.queries {
		if liveOnly && (aq.mech == MechanismCache || aq.mech == MechanismPending) {
			continue
		}
		cs = append(cs, costed{aq, queryCost(aq, drawn)})
	}
	f.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].cost != cs[j].cost {
			return cs[i].cost > cs[j].cost
		}
		return shedBefore(cs[i].aq, cs[j].aq)
	})
	ranked := make([]*activeQuery, len(cs))
	for i, c := range cs {
		ranked[i] = c.aq
	}
	return ranked
}

// qidNum extracts the numeric part of a "q-N" query id for ordering ("q-9"
// before "q-10", which string comparison gets wrong).
func qidNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "q-"))
	if err != nil {
		return 0
	}
	return n
}

// shedBefore orders equal-cost shed candidates deterministically: older
// submissions first, then the numerically smaller query id — never the
// newest query.
func shedBefore(a, b *activeQuery) bool {
	if !a.submitted.Equal(b.submitted) {
		return a.submitted.Before(b.submitted)
	}
	return qidNum(a.id) < qidNum(b.id)
}

// qosShedLoad brings the live-provisioning population back to the
// controller's slot budget (removing at least minShed queries): eligible
// queries degrade to stale-cache answers first (graceful — answers keep
// flowing), then what cannot degrade is shed outright, highest measured
// joules-per-item first.
func (f *Factory) qosShedLoad(reason string, minShed int) {
	if f.qos == nil {
		return
	}
	target := f.qos.MaxActive()
	live := f.shedOrder(true)
	over := len(live) - target
	if over < minShed {
		over = minShed
	}
	if over > len(live) {
		over = len(live)
	}
	if over <= 0 {
		return
	}
	var rest []*activeQuery
	for _, aq := range live {
		if over <= 0 {
			break
		}
		if f.canDegradeToCache(aq.q) {
			if f.degradeToCache(aq.id, reason) {
				over--
			}
			continue
		}
		rest = append(rest, aq)
	}
	for _, aq := range rest {
		if over <= 0 {
			break
		}
		sp := aq.span.Child("qos.shed")
		sp.SetAttr("reason", reason)
		sp.End()
		f.instr.qosShed.Inc()
		aq.client.InformError("contory: query " + aq.id + " shed by qos overload control (" + reason + ")")
		f.finishQuery(aq.id, metrics.EventCancelled)
		over--
	}
	// Degraded/shed queries freed live slots; release pending work into them.
	f.qosDispatch()
}

// degradeToCache moves a live query onto stale-cache service: its provider
// is cancelled, its slot is handed back, and answers continue from the
// repository bounded by the type's TTL.
func (f *Factory) degradeToCache(queryID, reason string) bool {
	f.qosEnterUnstable()
	defer f.qosExitUnstable()
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok || aq.mech == MechanismCache || aq.mech == MechanismPending {
		f.mu.Unlock()
		return false
	}
	from := aq.mech
	aq.mech = MechanismCache
	aq.degraded = true
	wasLive := aq.qosLive
	aq.qosLive = false
	f.stopTimer(queryID, &aq.probe, "probe")
	f.mu.Unlock()
	f.cancelEverywhere(queryID)
	if wasLive {
		f.qosDone(queryID)
	}
	f.instr.qosDegraded.Inc()
	sp := aq.span.Child("qos.degrade")
	sp.SetAttr("from", from.String())
	sp.SetAttr("reason", reason)
	sp.End()
	f.reportAssigned(queryID, MechanismCache, "degraded from ", metrics.DetailArgs{From: from.String(), Reason: reason})
	f.clock.Post(0, func() { f.cacheDeliver(queryID, true) })
	return true
}
