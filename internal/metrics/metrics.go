// Package metrics is Contory's instrumentation substrate: a dependency-free
// registry of named atomic counters, float gauges and fixed-bucket
// histograms, plus a bounded ring of query-lifecycle events.
//
// The paper's whole evaluation (§6, Tables 1–2, Figs. 4–5) is about
// measuring the middleware — latency per provisioning mechanism, energy per
// operation, failover timelines. This package makes those measurements a
// first-class middleware service instead of ad-hoc test assertions: hot
// paths across core, provider, refs, simnet and energy record into a shared
// Registry, and Snapshot renders the whole state deterministically (sorted
// names, exact float formatting), so two identically-seeded virtual-clock
// runs produce byte-identical output that future PRs can diff.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Ring or *Registry are no-ops, so instrumented code never
// branches on "is metrics enabled".
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// fixedScale is the resolution of fixed-point accumulation: one microunit.
// Gauges and histogram sums accumulate int64 microunits instead of floats so
// concurrent Adds from different simulation lanes commute exactly — float
// addition is order-dependent in its low bits, and parallel fleet runs must
// produce byte-identical snapshots at any worker count.
const fixedScale = 1e6

// toFixed converts a float delta to microunits, saturating on overflow and
// mapping NaN to 0.
func toFixed(v float64) int64 {
	f := math.Round(v * fixedScale)
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
}

func fromFixed(fp int64) float64 { return float64(fp) / fixedScale }

// Gauge is an instantaneous value (e.g. active providers, accumulated
// joules per operation class). It supports both Set and Add. Values are held
// in fixed point at microunit resolution, so concurrent Adds are
// order-independent (see fixedScale).
type Gauge struct {
	fp atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.fp.Store(toFixed(v))
}

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.fp.Add(toFixed(d))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return fromFixed(g.fp.Load())
}

// Histogram is a fixed-bucket histogram: observations are counted in the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket. Bounds are fixed at creation so snapshots from different
// runs line up bucket for bucket.
//
// Observe is lock-free: bucket and total counts and the fixed-point sum are
// atomic adds (order-independent, so parallel lanes commute exactly), and
// min/max are maintained by compare-and-swap on float bits. Snapshots are
// taken between batches when the clock is idle, so the per-field atomic
// reads observe a consistent state.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds (excl. +Inf)
	labels []string  // bounds rendered once for snapshots; last is "+Inf"

	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sum     atomic.Int64  // microunits (see fixedScale): order-independent accumulation
	minBits atomic.Uint64 // Float64bits; +Inf until the first observation
	maxBits atomic.Uint64 // Float64bits; -Inf until the first observation
}

// DefaultLatencyBucketsMs covers the paper's measured range: sub-millisecond
// SM tag reads through 13-second BT inquiries and minute-scale failovers.
var DefaultLatencyBucketsMs = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1000, 2000, 5000, 10000, 30000, 60000,
}

// newHistogram copies and sorts the bounds, dropping duplicates, and
// renders each bucket's label once: bounds never change, so snapshots only
// read the labels.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i > 0 && b == bs[i-1] {
			continue
		}
		dedup = append(dedup, b)
	}
	labels := make([]string, 0, len(dedup)+1)
	for _, b := range dedup {
		labels = append(labels, formatFloat(b))
	}
	h := &Histogram{
		bounds: dedup,
		labels: append(labels, "+Inf"),
		counts: make([]atomic.Int64, len(dedup)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(toFixed(v))
	for {
		ob := h.minBits.Load()
		if !(v < math.Float64frombits(ob)) || h.minBits.CompareAndSwap(ob, math.Float64bits(v)) {
			break
		}
	}
	for {
		ob := h.maxBits.Load()
		if !(v > math.Float64frombits(ob)) || h.maxBits.CompareAndSwap(ob, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values, at microunit resolution.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return fromFixed(h.sum.Load())
}

// minMax returns the observed extrema, or (0, 0) for an empty histogram —
// the same zero values the mutex-based implementation reported.
func (h *Histogram) minMax() (lo, hi float64) {
	if h.count.Load() == 0 {
		return 0, 0
	}
	return math.Float64frombits(h.minBits.Load()), math.Float64frombits(h.maxBits.Load())
}

// Registry holds named instruments and the query-lifecycle event ring. A
// name identifies exactly one instrument of one kind; asking for an
// existing name returns the same instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	ring     *Ring
}

// DefaultRingCapacity bounds the lifecycle event ring of a new registry.
const DefaultRingCapacity = 1024

// NewRegistry returns an empty registry with a DefaultRingCapacity event
// ring.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ring:     NewRing(DefaultRingCapacity),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore bounds). Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Events returns the registry's lifecycle event ring. Nil-safe.
func (r *Registry) Events() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Record appends a lifecycle event to the ring. Nil-safe.
func (r *Registry) Record(ev Event) {
	if r == nil {
		return
	}
	r.ring.Record(ev)
}

// EventKind is a stage in a query's lifecycle.
type EventKind string

// Query lifecycle stages (submitted → assigned → delivered* → switched* →
// expired/cancelled).
const (
	EventSubmitted EventKind = "submitted"
	EventAssigned  EventKind = "assigned"
	EventDelivered EventKind = "delivered"
	EventSwitched  EventKind = "switched"
	EventExpired   EventKind = "expired"
	EventCancelled EventKind = "cancelled"
)

// Fault-injection lifecycle stages recorded by internal/chaos: every
// injected fault and its clearing land in the same ring as the query
// events, so a switched event can be traced back to the fault that caused
// it (Query holds the fault ID, Mechanism the fault kind).
const (
	EventFaultInjected EventKind = "fault-injected"
	EventFaultCleared  EventKind = "fault-cleared"
)

// SLO lifecycle stages recorded by internal/timeline: a burn-rate alert
// firing and clearing land in the same ring as query and fault events, so
// the event log interleaves objectives breaking with the faults that broke
// them (Query holds the SLO name, Mechanism the metric it watches).
const (
	EventSLOAlert EventKind = "slo-alert"
	EventSLOClear EventKind = "slo-clear"
)

// Event is one stamped query-lifecycle transition. At is virtual-clock
// time, so identically-seeded runs produce identical events.
//
// Owner is the device that numbered the query, kept apart from Query so
// recording builds no label: the ring keeps only its newest events, and
// Ring.Events joins the two as "owner/query" for every reader, leaving
// Owner empty in what it returns. Args likewise carries the parts a
// recorder would append to Detail, and Ring.Events appends them on read.
type Event struct {
	At        time.Time  `json:"at"`
	Owner     string     `json:"-"`
	Query     string     `json:"query"`
	Kind      EventKind  `json:"kind"`
	Mechanism string     `json:"mechanism,omitempty"`
	Detail    string     `json:"detail,omitempty"`
	Args      DetailArgs `json:"-"`
}

// DetailArgs are the trailing parts of an event's detail, such as a QoS
// decision's reason or wait. Ring.Events appends them to Detail in this
// order: From followed by ": " when From is set, then Reason, then Wait
// when Timed; it leaves Args zero in what it returns.
type DetailArgs struct {
	From   string
	Reason string
	Wait   time.Duration
	Timed  bool
}

// join returns detail with the parts appended.
func (a DetailArgs) join(detail string) string {
	if a.From != "" {
		detail += a.From + ": "
	}
	detail += a.Reason
	if a.Timed {
		detail += a.Wait.String()
	}
	return detail
}

// Ring is a bounded buffer of lifecycle events: when full, recording evicts
// the oldest event. Total keeps counting past evictions, and Dropped counts
// the evictions themselves so overflow is never silent.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	total   uint64
	dropped uint64
}

// NewRing returns a ring holding at most capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record appends an event, evicting the oldest when full. Nil-safe.
func (r *Ring) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

// Events returns the retained events, oldest first, each event's owner
// joined into its query label ("owner/query") and its detail arguments
// into its detail. Nil-safe.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		ev := r.buf[(r.start+i)%len(r.buf)]
		if ev.Owner != "" {
			ev.Query = ev.Owner + "/" + ev.Query
			ev.Owner = ""
		}
		if ev.Args != (DetailArgs{}) {
			ev.Detail = ev.Args.join(ev.Detail)
			ev.Args = DetailArgs{}
		}
		out = append(out, ev)
	}
	return out
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Capacity returns the ring's bound.
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns how many events were ever recorded (including evicted).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring evicted to make room.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
