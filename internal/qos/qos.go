// Package qos implements the quality-of-service plane the ContextFactory
// consults before and during provisioning: per-client admission control
// (GCRA token buckets), deadline- and priority-aware scheduling of pending
// queries (weighted-fair dequeue across priority lanes), and the overload
// signal that drives graceful degradation to stale-cache answers. The
// controller is driven entirely by the virtual clock, so identically
// seeded runs make byte-identical decisions at any worker count.
package qos

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"contory/internal/query"
	"contory/internal/vclock"
)

// ErrRejected is the sentinel error wrapped into every admission-control
// rejection, so clients can match it with errors.Is regardless of the
// rejection reason.
var ErrRejected = errors.New("qos: admission rejected")

// Class is a query's priority class. The zero value ClassAuto means
// "derive from the query's attributes" (Classify); the other classes form
// the scheduler's lanes, served weighted-fair 4:2:1.
type Class int

// Priority classes.
const (
	ClassAuto Class = iota
	ClassInteractive
	ClassStandard
	ClassBulk
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassAuto:
		return "auto"
	case ClassInteractive:
		return "interactive"
	case ClassStandard:
		return "standard"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Weight returns the class's weighted-fair share. Unknown classes weigh
// like ClassStandard.
func (c Class) Weight() int {
	switch c {
	case ClassInteractive:
		return 4
	case ClassBulk:
		return 1
	default:
		return 2
	}
}

// scheduling order of the lanes; also the tie-break order when virtual
// finish times are equal, so higher-priority lanes win exact ties.
var classOrder = [...]Class{ClassInteractive, ClassStandard, ClassBulk}

// Classify derives a query's priority class. An explicit class (from the
// client's priority option) wins; otherwise tight EVERY periods and tight
// FRESHNESS clauses read as interactive use, long EVERY periods as bulk
// collection, and everything else as standard.
func Classify(q *query.Query, explicit Class) Class {
	if explicit != ClassAuto {
		return explicit
	}
	if q == nil {
		return ClassStandard
	}
	if q.Every > 0 {
		switch {
		case q.Every <= 5*time.Second:
			return ClassInteractive
		case q.Every >= time.Minute:
			return ClassBulk
		default:
			return ClassStandard
		}
	}
	if q.Freshness > 0 && q.Freshness <= 10*time.Second {
		return ClassInteractive
	}
	return ClassStandard
}

// Config parameterizes a Controller.
type Config struct {
	// Enabled switches the whole QoS plane on. The zero Config leaves the
	// factory's legacy behaviour untouched.
	Enabled bool
	// Rate is each client's sustained admission rate in queries/second.
	Rate float64
	// Burst is how many queries a client may submit back-to-back before
	// the rate limit defers them.
	Burst int
	// QueueCap bounds the factory-wide pending-query queue across all
	// lanes; a full queue turns defers into degrades or rejections.
	QueueCap int
	// MaxActive bounds concurrently provisioning (live-provider) queries.
	MaxActive int
}

// Default admission parameters.
const (
	DefaultRate      = 1.0
	DefaultBurst     = 2
	DefaultQueueCap  = 32
	DefaultMaxActive = 4
)

// WithDefaults fills unset fields with the default admission parameters.
func (c Config) WithDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = DefaultRate
	}
	if c.Burst <= 0 {
		c.Burst = DefaultBurst
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.MaxActive <= 0 {
		c.MaxActive = DefaultMaxActive
	}
	return c
}

// Verdict is the outcome of one admission decision.
type Verdict int

// Verdicts.
const (
	// VerdictAdmit lets the query provision live immediately.
	VerdictAdmit Verdict = iota + 1
	// VerdictDegrade serves the query a stale answer from the answer
	// cache instead of live provisioning.
	VerdictDegrade
	// VerdictDefer parks the query in its priority lane until its token
	// is earned and a provisioning slot frees up.
	VerdictDefer
	// VerdictReject refuses the query (clients match ErrRejected).
	VerdictReject
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDegrade:
		return "degrade"
	case VerdictDefer:
		return "defer"
	case VerdictReject:
		return "reject"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Decision is one vclock-stamped admission decision.
type Decision struct {
	Verdict Verdict
	// At is the virtual-clock time the decision was made.
	At time.Time
	// Client and Class identify the admission bucket and priority lane.
	Client string
	Class  Class
	// Wait is how long a deferred query waits for its token (0 when only
	// a provisioning slot is missing).
	Wait time.Duration
	// Reason explains degradations and rejections ("rate", "deadline",
	// "queue full", "low battery", ...).
	Reason string
}

// Request describes the query being admitted.
type Request struct {
	// ID is the query id a deferred request is parked under.
	ID string
	// CanDegrade reports whether a stale-cache answer could serve the
	// query right now (the factory checks the repository first).
	CanDegrade bool
	// Lifetime is the query's DURATION clause (0 = unbounded). A deferral
	// that would outlive it is pointless and resolves to degrade/reject.
	Lifetime time.Duration
}

// entry is one deferred query parked in its priority lane.
type entry struct {
	id         string
	eligibleAt time.Time // token earned; releasable once a slot frees
}

// Controller is the factory's QoS brain: it owns the per-client token
// buckets (GCRA), the bounded pending queue with its weighted-fair lanes,
// and the live-slot accounting. All methods are cheap and deterministic;
// time flows exclusively from the virtual clock handed to New.
type Controller struct {
	clock vclock.Clock
	cfg   Config
	// resourceLow reports scarce device resources (low battery / low
	// memory); fed by the ResourcesMonitor. May be nil.
	resourceLow func() bool

	mu         sync.Mutex
	tat        map[string]time.Time // GCRA theoretical arrival time per client
	lanes      map[Class][]entry
	pending    int
	served     map[Class]int // weighted-fair service accounting per busy period
	active     int
	underflows int     // Done() calls with no slot held — always a caller bug
	scale      float64 // MaxActive scale knob (reducePower); (0,1]
}

// New returns a Controller on the given clock. resourceLow, when non-nil,
// feeds the overload detector (typically the monitor's battery/memory
// levels).
func New(clock vclock.Clock, cfg Config, resourceLow func() bool) *Controller {
	return &Controller{
		clock:       clock,
		cfg:         cfg.WithDefaults(),
		resourceLow: resourceLow,
		tat:         make(map[string]time.Time),
		lanes:       make(map[Class][]entry),
		served:      make(map[Class]int),
		scale:       1,
	}
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// period is the GCRA emission interval T = 1/Rate.
func (c *Controller) period() time.Duration {
	return time.Duration(float64(time.Second) / c.cfg.Rate)
}

// gcraWaitLocked computes how long the client must wait for its next
// token, without consuming it.
func (c *Controller) gcraWaitLocked(client string, now time.Time) time.Duration {
	t := c.period()
	tau := time.Duration(c.cfg.Burst-1) * t
	tat := c.tat[client]
	if tat.Before(now) {
		tat = now
	}
	if w := tat.Add(-tau).Sub(now); w > 0 {
		return w
	}
	return 0
}

// consumeLocked books one token for the client (GCRA update).
func (c *Controller) consumeLocked(client string, now time.Time) {
	tat := c.tat[client]
	if tat.Before(now) {
		tat = now
	}
	c.tat[client] = tat.Add(c.period())
}

func (c *Controller) maxActiveLocked() int {
	n := int(float64(c.cfg.MaxActive) * c.scale)
	if n < 1 {
		n = 1
	}
	return n
}

// overloadedLocked is the overload detector: queue pressure (pending load
// at half the queue bound or beyond) or scarce device resources.
func (c *Controller) overloadedLocked() (bool, string) {
	if 2*c.pending >= c.cfg.QueueCap {
		return true, "queue pressure"
	}
	if c.resourceLow != nil && c.resourceLow() {
		return true, "low resources"
	}
	return false, ""
}

// Overloaded reports whether the overload detector currently fires.
func (c *Controller) Overloaded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ov, _ := c.overloadedLocked()
	return ov
}

// Admit makes the admission decision for one query. Admitted queries
// consume a token and a live slot; deferred queries consume a token at its
// earn time and are parked in their class lane (release them by calling
// Next once Decision.Wait elapses and whenever a slot frees). Degrade and
// reject decisions consume nothing.
func (c *Controller) Admit(client string, cls Class, req Request) Decision {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	d := Decision{At: now, Client: client, Class: cls}

	wait := c.gcraWaitLocked(client, now)
	overloaded, why := c.overloadedLocked()
	if wait == 0 && c.active < c.maxActiveLocked() && !overloaded {
		c.consumeLocked(client, now)
		c.active++
		d.Verdict = VerdictAdmit
		return d
	}
	// The query cannot provision right now. Shedding is graceful: a query
	// the answer cache can still serve degrades instead of queueing or
	// failing outright.
	if req.Lifetime > 0 && wait >= req.Lifetime {
		// Deadline-aware: the token would be earned after the query's
		// DURATION elapsed, so deferring is pointless.
		d.Reason = "deadline"
		if req.CanDegrade {
			d.Verdict = VerdictDegrade
		} else {
			d.Verdict = VerdictReject
		}
		return d
	}
	if overloaded && req.CanDegrade {
		d.Verdict = VerdictDegrade
		d.Reason = why
		return d
	}
	if c.pending >= c.cfg.QueueCap {
		d.Reason = "queue full"
		if req.CanDegrade {
			d.Verdict = VerdictDegrade
		} else {
			d.Verdict = VerdictReject
		}
		return d
	}
	if c.pending == 0 {
		// New busy period: reset the weighted-fair accounting so an idle
		// stretch does not carry stale service debt into the next burst.
		clear(c.served)
	}
	c.consumeLocked(client, now)
	c.lanes[cls] = append(c.lanes[cls], entry{id: req.ID, eligibleAt: now.Add(wait)})
	c.pending++
	d.Verdict = VerdictDefer
	d.Wait = wait
	return d
}

// Next releases the next deferred query: the head of the eligible lane
// with the smallest virtual finish time served/weight (ties go to the
// higher-priority lane), provided a live slot is free. The released query
// occupies a slot immediately; call Done if its provisioning fails.
func (c *Controller) Next() (string, bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active >= c.maxActiveLocked() {
		return "", false
	}
	best := ClassAuto
	bestKey := 0.0
	found := false
	for _, cls := range classOrder {
		lane := c.lanes[cls]
		if len(lane) == 0 || lane[0].eligibleAt.After(now) {
			continue
		}
		key := float64(c.served[cls]) / float64(cls.Weight())
		if !found || key < bestKey {
			found, best, bestKey = true, cls, key
		}
	}
	if !found {
		return "", false
	}
	// Pop in place: the lane keeps its backing array, so later defers
	// append into it instead of re-allocating.
	lane := c.lanes[best]
	e := lane[0]
	c.lanes[best] = slices.Delete(lane, 0, 1)
	c.pending--
	c.served[best]++
	c.active++
	return e.id, true
}

// Done releases one live-provisioning slot (query finished, degraded away,
// or its release failed to find a mechanism). It reports false — leaving
// the account floored at zero — when no slot was held: a double release,
// which is always a caller bug and must surface instead of being silently
// clamped away.
func (c *Controller) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active <= 0 {
		c.underflows++
		return false
	}
	c.active--
	return true
}

// Underflows reports how many Done() calls found no slot to release.
func (c *Controller) Underflows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.underflows
}

// Remove drops a deferred query from its lane (cancelled or expired while
// pending) and reports whether it was found.
func (c *Controller) Remove(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for cls, lane := range c.lanes {
		for i, e := range lane {
			if e.id == id {
				c.lanes[cls] = slices.Delete(lane, i, i+1)
				c.pending--
				return true
			}
		}
	}
	return false
}

// Scale adjusts the live-slot budget to f×MaxActive (clamped to at least
// one slot); the reducePower policy passes 0.5. f outside (0,1] resets to
// the full budget.
func (c *Controller) Scale(f float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f <= 0 || f > 1 {
		f = 1
	}
	c.scale = f
}

// MaxActive returns the current effective live-slot budget.
func (c *Controller) MaxActive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxActiveLocked()
}

// Pending returns how many queries are parked across all lanes.
func (c *Controller) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// Active returns how many live-provisioning slots are occupied.
func (c *Controller) Active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}
