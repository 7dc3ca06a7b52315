package core

import (
	"time"

	"contory/internal/metrics"
)

// instruments caches the Factory's hot-path metric handles so submitting,
// delivering and switching never pay a registry map lookup.
type instruments struct {
	reg *metrics.Registry
	// owner is the device id lifecycle events carry beside the query id;
	// the ring joins them on read ("boat-1/q-3"): factories number queries
	// locally, so a shared world registry needs the device id to keep
	// event streams unambiguous.
	owner string

	submitted *metrics.Counter
	rejected  *metrics.Counter
	delivered *metrics.Counter
	switched  *metrics.Counter
	expired   *metrics.Counter
	cancelled *metrics.Counter
	active    *metrics.Gauge

	// Answer-cache instrumentation (shared provisioning plane).
	cacheHits       *metrics.Counter
	cacheMisses     *metrics.Counter
	cacheRefreshes  *metrics.Counter
	cachePromotions *metrics.Counter
	cacheAgeMs      *metrics.Histogram // age of served-from-cache answers

	// QoS-plane instrumentation (admission, scheduling, shedding).
	qosAdmitted *metrics.Counter
	qosRejected *metrics.Counter
	qosDeferred *metrics.Counter
	qosReleased *metrics.Counter
	qosDegraded *metrics.Counter
	qosShed     *metrics.Counter
	qosPending  *metrics.Gauge
	// qosDoneUnderflow counts live-slot double releases the controller
	// detected (Done() with no slot held) — always a middleware bug.
	qosDoneUnderflow *metrics.Counter

	assigned   map[Mechanism]*metrics.Counter
	firstLatMs map[Mechanism]*metrics.Histogram
}

// allMechanisms is the fixed facade domain (MechanismCache is not a facade:
// cache-served queries own no provider, so it is instrumented separately).
var allMechanisms = []Mechanism{MechanismLocal, MechanismAdHoc, MechanismInfra}

func newInstruments(reg *metrics.Registry, owner string) *instruments {
	in := &instruments{
		reg:              reg,
		owner:            owner,
		submitted:        reg.Counter("core.query.submitted"),
		rejected:         reg.Counter("core.query.rejected"),
		delivered:        reg.Counter("core.query.items_delivered"),
		switched:         reg.Counter("core.query.switched"),
		expired:          reg.Counter("core.query.expired"),
		cancelled:        reg.Counter("core.query.cancelled"),
		active:           reg.Gauge("core.query.active"),
		cacheHits:        reg.Counter("core.cache.hits"),
		cacheMisses:      reg.Counter("core.cache.misses"),
		cacheRefreshes:   reg.Counter("core.cache.refreshes"),
		cachePromotions:  reg.Counter("core.cache.promotions"),
		cacheAgeMs:       reg.Histogram("core.cache.served_age_ms", metrics.DefaultLatencyBucketsMs),
		qosAdmitted:      reg.Counter("qos.admitted"),
		qosRejected:      reg.Counter("qos.rejected"),
		qosDeferred:      reg.Counter("qos.deferred"),
		qosReleased:      reg.Counter("qos.released"),
		qosDegraded:      reg.Counter("qos.degraded"),
		qosShed:          reg.Counter("qos.shed"),
		qosPending:       reg.Gauge("qos.pending"),
		qosDoneUnderflow: reg.Counter("qos.done.underflow"),
		assigned:         make(map[Mechanism]*metrics.Counter, len(allMechanisms)+1),
		firstLatMs:       make(map[Mechanism]*metrics.Histogram, len(allMechanisms)+1),
	}
	for _, m := range [...]Mechanism{MechanismLocal, MechanismAdHoc, MechanismInfra, MechanismCache} {
		in.assigned[m] = reg.Counter("core.query.assigned." + m.String())
		in.firstLatMs[m] = reg.Histogram(
			"core.query.first_item_latency_ms."+m.String(), metrics.DefaultLatencyBucketsMs)
	}
	return in
}

// observeServedAge records the age of an answer served from the cache.
func (in *instruments) observeServedAge(age time.Duration) {
	in.cacheAgeMs.Observe(float64(age) / float64(time.Millisecond))
}

// event stamps one lifecycle transition into the registry's bounded ring.
func (in *instruments) event(at time.Time, queryID string, kind metrics.EventKind, mech, detail string) {
	in.reg.Record(metrics.Event{
		At: at, Owner: in.owner, Query: queryID, Kind: kind, Mechanism: mech, Detail: detail,
	})
}

// observeFirstItem records the submission→first-delivery latency for the
// serving mechanism (the per-mechanism query latency of Table 1).
func (in *instruments) observeFirstItem(mech Mechanism, lat time.Duration) {
	if h := in.firstLatMs[mech]; h != nil {
		h.Observe(float64(lat) / float64(time.Millisecond))
	}
}
