package core

import (
	"strconv"
	"time"

	"contory/internal/cxt"
	"contory/internal/metrics"
	"contory/internal/query"
)

// This file implements the answer cache of the shared provisioning plane:
// before assigning a mechanism, ProcessCxtQuery consults the device
// repository and, when stored items satisfy the query's type/WHERE/FRESHNESS
// clauses, serves the query from the cache with zero provider work. Periodic
// queries receive EVERY-period refreshes while the cache stays fresh and are
// transparently promoted to a live provisioning mechanism when it goes
// stale. The cache is opt-in (WithAnswerCache); staleness is always bounded
// by the query's FRESHNESS clause or the repository's per-type TTL — a
// query with neither bound never hits the cache. Degraded answers (the QoS
// plane's stale-cache service) waive FRESHNESS and are bounded by the
// type's TTL alone, so a type without a TTL has no degraded answer and its
// queries are never degraded.

// cacheEligible reports whether the query may be served from the answer
// cache at all: the cache must be on, and event queries need live
// evaluation; entity/region queries target a specific remote party, which
// stored items cannot attest to.
func (f *Factory) cacheEligible(q *query.Query) bool {
	if !f.cacheEnabled || q.Event != nil {
		return false
	}
	switch q.From.Kind {
	case query.SourceEntity, query.SourceRegion:
		return false
	}
	// Staleness must be bounded: by the FRESHNESS clause or a per-type TTL.
	return q.Freshness > 0 || f.dev.Repo.TTLFor(q.Select) > 0
}

// cacheSourceCompatible reports whether a stored item could have been
// produced by the query's FROM clause, so a pinned mechanism never receives
// context from a different kind of source.
func cacheSourceCompatible(q *query.Query, it cxt.Item) bool {
	switch q.From.Kind {
	case query.SourceIntSensor:
		return it.Source.Kind == cxt.SourceSensor || it.Source.Kind == 0
	case query.SourceExtInfra:
		return it.Source.Kind == cxt.SourceInfrastructure
	case query.SourceAdHoc:
		return it.Source.Kind == cxt.SourceAdHocNode
	default: // auto: any source satisfies maximum transparency
		return true
	}
}

// cacheLookup returns the newest repository item satisfying the query's
// type, FROM and WHERE clauses among those the repository may serve:
// unexpired, within the type's TTL and at most maxAge old (0 = TTL only).
// Live lookups pass the FRESHNESS clause; degraded ones go through
// degradedLookup.
func (f *Factory) cacheLookup(q *query.Query, maxAge time.Duration) (cxt.Item, bool) {
	return f.dev.Repo.FirstServable(q.Select, maxAge, func(it cxt.Item) bool {
		return cacheSourceCompatible(q, it) && query.EvalWhere(q.Where, it.Meta)
	})
}

// degradedLookup is the QoS plane's stale-cache lookup: FRESHNESS is
// waived and staleness is bounded by the type's TTL alone, so a type
// without a TTL has no degraded answer.
func (f *Factory) degradedLookup(q *query.Query) (cxt.Item, bool) {
	if f.dev.Repo.TTLFor(q.Select) <= 0 {
		return cxt.Item{}, false
	}
	return f.cacheLookup(q, 0)
}

// tryServeFromCache attempts to register aq as cache-served. It runs after
// the query's root span is open and before any facade submission; returning
// true means the query is live on MechanismCache and the first answer is
// already scheduled.
func (f *Factory) tryServeFromCache(aq *activeQuery) bool {
	if !f.cacheEligible(aq.q) {
		return false
	}
	sp := aq.span.Child("cache.lookup")
	sp.SetAttr("type", string(aq.q.Select))
	it, ok := f.cacheLookup(aq.q, aq.q.Freshness)
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	if !ok {
		f.instr.cacheMisses.Inc()
		return false
	}
	if hit := aq.span.Child("cache.hit"); hit != nil {
		hit.SetAttr("age", it.Age(f.clock.Now()).String())
		hit.End()
	}
	f.register(aq, MechanismCache, "")
	// The first answer is delivered asynchronously, like a provider's, so
	// the Subscription handle exists before the client callback runs.
	f.clock.Post(0, func() { f.cacheDeliver(aq.id, true) })
	return true
}

// cacheDeliver serves one answer from the repository to a cache-served
// query: the initial answer (first) or an EVERY-period refresh. A lookup
// miss promotes the query to a live mechanism instead.
func (f *Factory) cacheDeliver(queryID string, first bool) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok || aq.mech != MechanismCache {
		f.mu.Unlock()
		return
	}
	q := aq.q
	degraded := aq.degraded
	f.mu.Unlock()

	var it cxt.Item
	var hit bool
	if degraded {
		// Degraded queries accept staleness up to the type's TTL: that is
		// the point of degrading.
		it, hit = f.degradedLookup(q)
	} else {
		it, hit = f.cacheLookup(q, q.Freshness)
	}
	if !hit {
		if degraded {
			// A degraded query never promotes back to live provisioning —
			// it was degraded to shed exactly that load.
			aq.client.InformError("contory: query " + queryID +
				": degraded to stale cache but no servable item remains")
			f.finishQuery(queryID, metrics.EventCancelled)
			return
		}
		f.promoteFromCache(queryID, "cache stale")
		return
	}

	f.mu.Lock()
	if f.queries[queryID] != aq || aq.mech != MechanismCache {
		f.mu.Unlock()
		return
	}
	firstItem, exhausted := aq.countDelivery()
	aq.cacheHits++
	f.mu.Unlock()

	f.reportDelivered(aq, MechanismCache, it, firstItem, true)
	f.instr.cacheHits.Inc()
	if !first {
		f.instr.cacheRefreshes.Inc()
	}
	f.instr.observeServedAge(it.Age(f.clock.Now()))
	// The item came from the repository, so it is not re-stored and needs no
	// access-control re-admission: it was admitted when originally delivered.
	aq.client.ReceiveCxtItem(it)

	switch {
	case exhausted, q.Every <= 0:
		// Sample budget spent, or on-demand: one answer, then done
		// (matching provider semantics).
		f.finishQuery(queryID, metrics.EventExpired)
	case first:
		// Periodic: arm the EVERY-period refresh ticker.
		f.mu.Lock()
		if f.queries[queryID] == aq && aq.mech == MechanismCache && aq.cacheTick == nil {
			aq.cacheTick = f.clock.Every(q.Every, func() { f.cacheDeliver(queryID, false) })
			f.auditTimerArmed(queryID, "cacheTick")
		}
		f.mu.Unlock()
	}
}

// promoteFromCache moves a cache-served query onto a live provisioning
// mechanism because the cache can no longer answer it. Promotion walks the
// query's mechanism preferences exactly like initial assignment; if none is
// available the query fails like an unassignable submission.
func (f *Factory) promoteFromCache(queryID, reason string) {
	f.mu.Lock()
	aq, ok := f.queries[queryID]
	if !ok || aq.mech != MechanismCache {
		f.mu.Unlock()
		return
	}
	f.stopTimer(queryID, &aq.cacheTick, "cacheTick")
	f.mu.Unlock()

	mech, err := f.submitFirst(aq)
	if err != nil {
		aq.client.InformError("contory: query " + queryID +
			": answer cache went stale and no provisioning mechanism is available")
		f.finishQuery(queryID, metrics.EventCancelled)
		return
	}
	if !f.moveTo(aq, mech, false) {
		return
	}
	f.instr.cachePromotions.Inc()
	pr := aq.span.Child("cache.promote")
	pr.SetAttr("to", mech.String())
	pr.SetAttr("reason", reason)
	pr.End()
	f.reportAssigned(queryID, mech, "promoted from cache: "+reason)
}
