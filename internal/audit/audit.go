// Package audit implements a deterministic runtime invariant checker for
// the provisioning plane. Subsystems report lifecycle transitions through
// thin taps (query started/finished, timer armed/stopped, item delivered,
// conservation-balance increments); the auditor verifies conservation laws
// continuously and at quiescence, and records vclock-stamped violations
// carrying the offending query's trace reference.
//
// All methods are safe on a nil *Auditor, mirroring the metrics idiom, so
// call sites never need to guard the tap:
//
//	f.audit.QueryStarted(now, dev, id, trace, span) // no-op when auditing is off
//
// Timestamps are passed in by the caller (the owning lane's virtual clock)
// rather than sampled here, which keeps the auditor free of clock plumbing
// and makes reports byte-identical at any worker count: violations are
// sorted by (At, Device, Query, Law, Detail) before exposition.
package audit

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Law identifies one conservation law checked by the auditor.
type Law string

const (
	// LawLifecycle: every admitted query reaches exactly one terminal
	// lifecycle event — never zero, never two.
	LawLifecycle Law = "lifecycle"
	// LawSlots: qos live-slot accounting — Controller active slots match
	// the set of slot-holding queries, the pending gauge matches
	// Controller.Pending(), and Done() never underflows.
	LawSlots Law = "qos-slots"
	// LawRefs: refcount conservation — facade provider counts, mux
	// subscriber counts, in-flight radio requests and resident SM
	// messages all return to zero.
	LawRefs Law = "refcounts"
	// LawTimers: every vclock timer armed on a query (expiry, probe,
	// cacheTick) is stopped on every exit path.
	LawTimers Law = "timers"
	// LawItems: delivered-item accounting balances across live and cache
	// dispositions — per-delivery taps must equal per-query totals.
	LawItems Law = "accounting"
)

// Violation is one detected invariant breach, stamped with the virtual
// time at which it was observed.
type Violation struct {
	At     time.Time `json:"at"`
	Device string    `json:"device"`
	Query  string    `json:"query,omitempty"`
	Law    Law       `json:"law"`
	Detail string    `json:"detail"`
	Trace  string    `json:"trace,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s [%s] %s/%s: %s", v.At.UTC().Format(time.RFC3339), v.Law, v.Device, v.Query, v.Detail)
	if v.Trace != "" {
		s += " (trace " + v.Trace + ")"
	}
	return s
}

// Report is the exportable audit outcome: how much was checked, what is
// still live, and every violation in deterministic order.
type Report struct {
	Queries    int         `json:"queries"`
	Checks     int64       `json:"checks"`
	LiveTimers int         `json:"live_timers"`
	Violations []Violation `json:"violations"`
}

// traceRef is a query's span identity, kept as numbers and rendered only
// when a violation cites it.
type traceRef struct{ trace, span uint64 }

// String renders the reference in the %016x form of the trace exporters,
// or "" when the query is untraced.
func (r traceRef) String() string {
	if r == (traceRef{}) {
		return ""
	}
	return fmt.Sprintf("%016x/%016x", r.trace, r.span)
}

// timerCount is one timer kind's armed-minus-stopped count.
type timerCount struct {
	kind string
	n    int
}

// timerTable holds a query's timer counts. The factory arms three kinds
// (expiry, probe, cacheTick), which fit inline; any further kind spills.
type timerTable struct {
	inline [3]timerCount
	more   []timerCount
}

// slot returns the count for kind, adding a zero entry when add is set;
// nil when the kind is absent and add is not set.
func (t *timerTable) slot(kind string, add bool) *int {
	for i := range t.inline {
		c := &t.inline[i]
		if c.kind == kind {
			return &c.n
		}
		if c.kind == "" {
			if !add {
				return nil
			}
			c.kind = kind
			return &c.n
		}
	}
	for i := range t.more {
		if t.more[i].kind == kind {
			return &t.more[i].n
		}
	}
	if !add {
		return nil
	}
	t.more = append(t.more, timerCount{kind: kind})
	return &t.more[len(t.more)-1].n
}

// armed returns the kinds still armed, sorted by kind; nil when none is.
func (t *timerTable) armed() []timerCount {
	var out []timerCount
	for _, c := range t.inline {
		if c.n > 0 {
			out = append(out, c)
		}
	}
	for _, c := range t.more {
		if c.n > 0 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].kind < out[j].kind })
	return out
}

// total sums the counts of every kind.
func (t *timerTable) total() int {
	n := 0
	for _, c := range t.inline {
		n += c.n
	}
	for _, c := range t.more {
		n += c.n
	}
	return n
}

type queryState struct {
	trace     traceRef
	terminal  string // terminal event kind; "" while active
	timers    timerTable
	delivered int // per-delivery taps, every disposition
	cacheHits int // per-delivery taps, cache-served subset
}

// deviceState is one device's records. Keeping them per device means a
// tap looks up two short keys and never builds a joined one.
type deviceState struct {
	queries  map[string]*queryState // by query id
	balances map[string]int64       // by balance name
}

// Auditor collects conservation-law state for one world. A single
// instance is shared by every device's factory, facades and radios; it is
// internally locked so taps may arrive from any simulation lane.
type Auditor struct {
	mu         sync.Mutex
	devices    map[string]*deviceState
	nqueries   int // query records across devices
	violations []Violation
	checks     int64
}

// New returns an empty auditor ready to receive taps.
func New() *Auditor {
	return &Auditor{devices: make(map[string]*deviceState)}
}

// deviceLocked returns the device's records, creating them on first use.
func (a *Auditor) deviceLocked(device string) *deviceState {
	ds, ok := a.devices[device]
	if !ok {
		ds = &deviceState{
			queries:  make(map[string]*queryState),
			balances: make(map[string]int64),
		}
		a.devices[device] = ds
	}
	return ds
}

// queryLocked returns the query's record, or nil.
func (a *Auditor) queryLocked(device, query string) *queryState {
	if ds, ok := a.devices[device]; ok {
		return ds.queries[query]
	}
	return nil
}

// balanceLocked returns the balance's value (0 when never moved).
func (a *Auditor) balanceLocked(device, name string) int64 {
	if ds, ok := a.devices[device]; ok {
		return ds.balances[name]
	}
	return 0
}

// lawForBalance maps a conservation-balance name to its owning law.
func lawForBalance(name string) Law {
	if strings.HasPrefix(name, "qos.") {
		return LawSlots
	}
	return LawRefs
}

// QueryStarted records that a query entered the plane (was admitted under
// any mechanism, including cache and pending). trace and span are the
// query's span identity, rendered into violation reports as
// "%016x/%016x"; both zero when the query is untraced.
func (a *Auditor) QueryStarted(at time.Time, device, query string, trace, span uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	ds := a.deviceLocked(device)
	st, ok := ds.queries[query]
	if ok && st.terminal == "" {
		a.violate(at, device, query, LawLifecycle,
			"query started twice without a terminal event in between", st.trace.String())
		return
	}
	if !ok {
		st = new(queryState)
		ds.queries[query] = st
		a.nqueries++
	}
	*st = queryState{trace: traceRef{trace: trace, span: span}}
}

// QueryFinished records the query's terminal lifecycle event (finished,
// expired, cancelled, failed, shed). delivered and cacheHits are the
// query's final per-query totals; they must match the per-delivery taps
// seen via ItemDelivered. A second terminal event, or a timer still armed
// at the terminal, is a violation.
func (a *Auditor) QueryFinished(at time.Time, device, query, kind string, delivered, cacheHits int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	st := a.queryLocked(device, query)
	if st == nil {
		a.violate(at, device, query, LawLifecycle,
			fmt.Sprintf("terminal event %q for a query that never started", kind), "")
		return
	}
	if st.terminal != "" {
		a.violate(at, device, query, LawLifecycle,
			fmt.Sprintf("second terminal event %q after %q", kind, st.terminal), st.trace.String())
		return
	}
	st.terminal = kind
	for _, tc := range st.timers.armed() {
		a.violate(at, device, query, LawTimers,
			fmt.Sprintf("timer %q still armed at terminal event %q", tc.kind, kind), st.trace.String())
	}
	if st.delivered != delivered {
		a.violate(at, device, query, LawItems,
			fmt.Sprintf("delivered items: query total %d, delivery taps %d", delivered, st.delivered), st.trace.String())
	}
	if st.cacheHits != cacheHits {
		a.violate(at, device, query, LawItems,
			fmt.Sprintf("cache items: query total %d, delivery taps %d", cacheHits, st.cacheHits), st.trace.String())
	}
}

// TimerArmed records that a named vclock timer (expiry, probe, cacheTick)
// was armed on the query.
func (a *Auditor) TimerArmed(at time.Time, device, query, kind string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	st := a.queryLocked(device, query)
	if st == nil {
		a.violate(at, device, query, LawTimers,
			fmt.Sprintf("timer %q armed on an unknown query", kind), "")
		return
	}
	*st.timers.slot(kind, true)++
}

// TimerStopped records that the named timer was stopped (or had fired and
// its handle was released). Stopping more often than arming is a
// violation in its own right.
func (a *Auditor) TimerStopped(at time.Time, device, query, kind string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	st := a.queryLocked(device, query)
	if st == nil {
		return // query record already gone; nothing to balance
	}
	n := st.timers.slot(kind, false)
	if n == nil || *n <= 0 {
		a.violate(at, device, query, LawTimers,
			fmt.Sprintf("timer %q stopped more times than armed", kind), st.trace.String())
		return
	}
	*n--
}

// ItemDelivered records one context item handed to a client, with its
// disposition. Every item counts as delivered; cache-served items count
// in the cacheHits subset as well, mirroring the query's own accounting.
func (a *Auditor) ItemDelivered(at time.Time, device, query string, cache bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	st := a.queryLocked(device, query)
	if st == nil || st.terminal != "" {
		a.violate(at, device, query, LawItems,
			"item delivered to a query with no active lifecycle record", "")
		return
	}
	st.delivered++
	if cache {
		st.cacheHits++
	}
}

// Add moves a named conservation balance by delta. Balances (qos slots,
// facade providers, mux subscribers, in-flight radio requests, resident
// SM messages) must never go negative and must be zero at quiescence.
func (a *Auditor) Add(at time.Time, device, name string, delta int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	bs := a.deviceLocked(device).balances
	v := bs[name] + delta
	if v < 0 {
		a.violate(at, device, "", lawForBalance(name),
			fmt.Sprintf("balance %q went negative (%d): more releases than acquisitions", name, v), "")
		v = 0 // re-arm so one bug yields one violation
	}
	bs[name] = v
}

// BalanceValue reports the current value of a conservation balance.
func (a *Auditor) BalanceValue(device, name string) int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.balanceLocked(device, name)
}

// Expect asserts that an externally computed pair agrees; a mismatch is a
// violation against the given law. Used for cross-checks the auditor
// cannot derive from taps alone (e.g. Controller.Active() vs the set of
// slot-holding queries).
func (a *Auditor) Expect(at time.Time, device, query string, law Law, detail string, got, want int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	if got != want {
		a.violate(at, device, query, law,
			fmt.Sprintf("%s: got %d, want %d", detail, got, want), a.traceOf(device, query))
	}
}

// ExpectZero asserts a conservation balance is exactly zero — the
// facade's StopAll and the fleet quiesce use it as the refcount law.
func (a *Auditor) ExpectZero(at time.Time, device, name string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	if v := a.balanceLocked(device, name); v != 0 {
		a.violate(at, device, "", lawForBalance(name),
			fmt.Sprintf("balance %q = %d at zero-check, want 0", name, v), "")
	}
}

// Violate records an externally detected violation (e.g. the qos
// controller reporting a Done() underflow at its own call site).
func (a *Auditor) Violate(at time.Time, device, query string, law Law, detail, trace string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	if trace == "" {
		trace = a.traceOf(device, query)
	}
	a.violate(at, device, query, law, detail, trace)
}

// CheckQuiesce runs the end-of-run sweep: every started query must have
// reached a terminal event, no timer may still be armed, every
// conservation balance must be zero, and global item accounting must
// balance. Call it after all factories are closed.
func (a *Auditor) CheckQuiesce(at time.Time) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks++
	var open []record[*queryState]
	var nonzero []record[int64]
	for device, ds := range a.devices {
		for query, st := range ds.queries {
			if st.terminal == "" {
				open = append(open, record[*queryState]{device, query, st})
			}
		}
		for name, v := range ds.balances {
			if v != 0 {
				nonzero = append(nonzero, record[int64]{device, name, v})
			}
		}
	}
	sortRecords(open)
	sortRecords(nonzero)
	for _, r := range open {
		trace := r.v.trace.String()
		a.violate(at, r.device, r.name, LawLifecycle,
			"query never reached a terminal lifecycle event", trace)
		for _, tc := range r.v.timers.armed() {
			a.violate(at, r.device, r.name, LawTimers,
				fmt.Sprintf("timer %q still armed at quiesce", tc.kind), trace)
		}
	}
	for _, r := range nonzero {
		a.violate(at, r.device, "", lawForBalance(r.name),
			fmt.Sprintf("balance %q = %d at quiesce, want 0", r.name, r.v), "")
	}
}

// record is one per-device entry named for a quiesce report.
type record[V any] struct {
	device, name string
	v            V
}

// sortRecords orders entries as their "device/name" joins sort, the order
// quiesce reports have always used.
func sortRecords[V any](rs []record[V]) {
	sort.Slice(rs, func(i, j int) bool {
		return rs[i].device+"/"+rs[i].name < rs[j].device+"/"+rs[j].name
	})
}

// LiveTimers counts timers still armed on queries that have not reached a
// terminal event — the "no live vclock timers" leak check. (The engine's
// own periodic feeds are not query timers and are not counted.)
func (a *Auditor) LiveTimers() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, ds := range a.devices {
		for _, st := range ds.queries {
			if st.terminal == "" {
				n += st.timers.total()
			}
		}
	}
	return n
}

// Totals sums the per-delivery taps over every tracked query: total items
// delivered and the cache-served subset. The fleet engine cross-checks
// these against the world's delivered/cache-hit counters, closing the
// accounting law across layers (per-delivery taps vs metric counters).
func (a *Auditor) Totals() (delivered, cacheHits int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ds := range a.devices {
		for _, st := range ds.queries {
			delivered += int64(st.delivered)
			cacheHits += int64(st.cacheHits)
		}
	}
	return delivered, cacheHits
}

// Checks reports how many taps and assertions the auditor has processed —
// a nonzero value proves auditing actually ran.
func (a *Auditor) Checks() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.checks
}

// Violations returns a sorted copy of every recorded violation.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return []Violation{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	sortViolations(out)
	return out
}

// Report summarizes the audit deterministically for exposition.
func (a *Auditor) Report() *Report {
	if a == nil {
		return nil
	}
	r := &Report{
		Queries:    0,
		Checks:     a.Checks(),
		LiveTimers: a.LiveTimers(),
		Violations: a.Violations(),
	}
	a.mu.Lock()
	r.Queries = a.nqueries
	a.mu.Unlock()
	return r
}

// violate appends under a.mu held.
func (a *Auditor) violate(at time.Time, device, query string, law Law, detail, trace string) {
	a.violations = append(a.violations, Violation{
		At: at, Device: device, Query: query, Law: law, Detail: detail, Trace: trace,
	})
}

// traceOf looks up a query's trace reference under a.mu held.
func (a *Auditor) traceOf(device, query string) string {
	if query == "" {
		return ""
	}
	if st := a.queryLocked(device, query); st != nil {
		return st.trace.String()
	}
	return ""
}

func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Law != b.Law {
			return a.Law < b.Law
		}
		return a.Detail < b.Detail
	})
}
