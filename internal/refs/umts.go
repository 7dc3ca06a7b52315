package refs

import (
	"fmt"
	"time"

	"contory/internal/energy"
	"contory/internal/fuego"
	"contory/internal/metrics"
	"contory/internal/monitor"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// UMTSReference is the paper's 2G/3GReference: it manages communication
// with remote entities over the cellular network and offers an event-based
// interface via the Fuego middleware. Turning the GSM radio on also brings
// the periodic idle-signalling power peaks of Fig. 4 (450–481 mW every
// 50–60 s).
type UMTSReference struct {
	clock  vclock.Clock
	client *fuego.Client
	node   *simnet.Node
	umts   *radio.UMTS
	mon    *monitor.Monitor

	// idleStop is the pending GSM idle-signalling peak. Its callback is
	// onIdlePeak, the reference's bound idlePeak, which charges the power
	// idleMW and duration idleDur drawn when the peak was scheduled.
	idleStop   *vclock.Timer
	onIdlePeak func()
	idleMW     float64
	idleDur    time.Duration
	gsmOn      bool
	// busyUntil marks the end of the current connection cycle (open +
	// transfer + radio tail); idle signalling is subsumed until then.
	busyUntil time.Time
	// reqBusyUntil serializes on-demand requests on the single cellular
	// data channel: a request issued while one is in flight queues until
	// the channel frees. Unlike busyUntil it excludes the radio tail —
	// the tail burns energy but does not occupy the channel.
	reqBusyUntil time.Time
	// queued holds the requests waiting for the data channel, in issue
	// order. Each waits on one Post of issueQueued, the reference's bound
	// issueNext: queued requests start in issue order, so each firing
	// issues the head.
	queued      []queuedRequest
	issueQueued func()
	// twoGOnly pins the radio to 2G. The field trials found that a 2G/3G
	// handover during an active UMTS connection switched the phone off —
	// unless it was set to operate only in 2G mode (§3).
	twoGOnly  bool
	switchOff int

	mPublishes  *metrics.Counter
	mRequests   *metrics.Counter
	mSubscribes *metrics.Counter
	mFailures   *metrics.Counter
	mQueued     *metrics.Counter
}

// SetMetrics attaches a registry counting infrastructure round-trips:
// event publishes, on-demand requests, channel subscriptions and failures.
func (r *UMTSReference) SetMetrics(reg *metrics.Registry) {
	r.mPublishes = reg.Counter("refs.umts.publishes")
	r.mRequests = reg.Counter("refs.umts.requests")
	r.mSubscribes = reg.Counter("refs.umts.subscribes")
	r.mFailures = reg.Counter("refs.umts.failures")
	r.mQueued = reg.Counter("refs.umts.queued")
}

// Set2GOnly pins (true) or unpins (false) the radio to 2G mode.
func (r *UMTSReference) Set2GOnly(on bool) { r.twoGOnly = on }

// TwoGOnly reports whether the radio is pinned to 2G.
func (r *UMTSReference) TwoGOnly() bool { return r.twoGOnly }

// SwitchOffs returns how many times the handover bug has switched the
// phone off.
func (r *UMTSReference) SwitchOffs() int { return r.switchOff }

// handoverRebootDelay is how long the phone stays off after the handover
// bug bites before the (simulated) user reboots it.
const handoverRebootDelay = 60 * time.Second

// Handover simulates the phone moving through a 2G/3G handover. With an
// active UMTS connection and the radio not pinned to 2G, the phone
// switches off (the §3 field-trial bug) and reboots after a minute. It
// reports whether the phone went down.
func (r *UMTSReference) Handover() bool {
	if r.twoGOnly || !r.gsmOn {
		return false
	}
	if r.clock.Now().After(r.busyUntil) {
		return false // no active connection: handover is harmless
	}
	r.switchOff++
	r.node.SetDown(true)
	if r.mon != nil {
		r.mon.ReportFailure("phone", "switched off during 2G/3G handover")
	}
	r.clock.After(handoverRebootDelay, func() {
		r.node.SetDown(false)
		if r.mon != nil {
			r.mon.ReportRecovery("phone")
		}
	})
	return true
}

// markBusy records a connection cycle carrying a transfer of duration d.
func (r *UMTSReference) markBusy(d time.Duration) {
	r.markBusyAt(r.clock.Now(), d)
}

// markBusyAt records a connection cycle starting at start carrying a
// transfer of duration d.
func (r *UMTSReference) markBusyAt(start time.Time, d time.Duration) {
	until := start.Add(radio.UMTSConnOpenWindow + d + radio.UMTSTailWindow)
	if until.After(r.busyUntil) {
		r.busyUntil = until
	}
}

// NewUMTSReference installs the reference on the node, pointed at the
// infrastructure server. The GSM radio starts off (the paper runs all
// non-UMTS experiments with the GSM radio off).
func NewUMTSReference(nw *simnet.Network, id, server simnet.NodeID, umts *radio.UMTS, mon *monitor.Monitor) (*UMTSReference, error) {
	client, err := fuego.NewClient(nw, id, server, umts)
	if err != nil {
		return nil, fmt.Errorf("refs: umts: %w", err)
	}
	r := &UMTSReference{
		clock:  nw.ClockFor(id),
		client: client,
		node:   client.Node(),
		umts:   umts,
		mon:    mon,
	}
	r.issueQueued = r.issueNext
	r.onIdlePeak = r.idlePeak
	client.ObserveRequests(r.observeRequest)
	return r, nil
}

// queuedRequest is one request waiting for the data channel.
type queuedRequest struct {
	op      string
	payload any
	timeout time.Duration
	span    *tracing.Span
	done    func(any, error)
}

// SetGSMRadio powers the cellular radio on or off. While on, GSM idle
// signalling bursts are charged to the power timeline at the measured
// cadence.
func (r *UMTSReference) SetGSMRadio(on bool) {
	if on == r.gsmOn {
		return
	}
	r.gsmOn = on
	if on {
		r.scheduleIdlePeak()
		return
	}
	if r.idleStop != nil {
		r.idleStop.Stop()
		r.idleStop = nil
	}
}

// GSMOn reports whether the cellular radio is on.
func (r *UMTSReference) GSMOn() bool { return r.gsmOn }

func (r *UMTSReference) scheduleIdlePeak() {
	var next time.Duration
	r.idleMW, r.idleDur, next = r.umts.IdlePeak()
	r.idleStop = r.clock.After(next, r.onIdlePeak)
}

// idlePeak charges the scheduled idle-signalling peak and schedules the next.
func (r *UMTSReference) idlePeak() {
	if !r.gsmOn {
		return
	}
	// Idle signalling only happens while the radio is otherwise idle;
	// during a data connection cycle it is subsumed by the transfer.
	if r.clock.Now().After(r.busyUntil) {
		r.node.Timeline().AddWindow("gsm-idle-peak", energy.Milliwatts(r.idleMW), r.idleDur)
	}
	r.scheduleIdlePeak()
}

// Publish pushes an event-encapsulated context item or query to the
// infrastructure; failures are reported to the monitor.
func (r *UMTSReference) Publish(channel string, payload any) (time.Duration, error) {
	r.mPublishes.Inc()
	d, err := r.client.Publish(channel, payload)
	if err == nil {
		r.markBusy(d)
	}
	if err != nil {
		r.mFailures.Inc()
		if r.mon != nil {
			r.mon.ReportFailure("umts", err.Error())
		}
		return 0, err
	}
	if r.mon != nil {
		r.mon.ReportRecovery("umts")
	}
	return d, nil
}

// Subscribe registers h for infrastructure notifications on a channel and
// returns the function that cancels this registration; handlers on one
// channel share the phone's subscription (see fuego.Client.Subscribe).
func (r *UMTSReference) Subscribe(channel string, h func(fuego.Notification)) (unsubscribe func() error, err error) {
	r.mSubscribes.Inc()
	unsubscribe, err = r.client.Subscribe(channel, h)
	if err != nil {
		r.mFailures.Inc()
		if r.mon != nil {
			r.mon.ReportFailure("umts", err.Error())
		}
		return nil, err
	}
	return unsubscribe, nil
}

// Request performs an on-demand infrastructure operation.
func (r *UMTSReference) Request(op string, payload any, timeout time.Duration, done func(any, error)) {
	r.RequestTraced(op, payload, timeout, nil, done)
}

// RequestTraced is Request carrying the caller's trace span, under which
// the infrastructure server opens its handling span (nil span = untraced).
// Requests serialize on the single cellular data channel: one issued while
// another is in flight queues for the nominal transfer window of the one
// ahead, so a burst of requests sees load-dependent latency instead of
// impossible parallel transfers.
func (r *UMTSReference) RequestTraced(op string, payload any, timeout time.Duration, span *tracing.Span, done func(any, error)) {
	r.mRequests.Inc()
	now := r.clock.Now()
	start := now
	if r.reqBusyUntil.After(start) {
		start = r.reqBusyUntil
	}
	r.reqBusyUntil = start.Add(radio.UMTSGetLatency)
	r.markBusyAt(start, radio.UMTSGetLatency)
	if wait := start.Sub(now); wait > 0 {
		r.mQueued.Inc()
		r.queued = append(r.queued, queuedRequest{op, payload, timeout, span, done})
		r.clock.Post(wait, r.issueQueued)
		return
	}
	r.issueRequest(op, payload, timeout, span, done)
}

// issueNext issues the longest-waiting queued request, popping it in place
// so the queue keeps its backing array.
func (r *UMTSReference) issueNext() {
	q := r.queued[0]
	n := copy(r.queued, r.queued[1:])
	r.queued[n] = queuedRequest{}
	r.queued = r.queued[:n]
	r.issueRequest(q.op, q.payload, q.timeout, q.span, q.done)
}

// issueRequest performs the actual infrastructure round-trip.
func (r *UMTSReference) issueRequest(op string, payload any, timeout time.Duration, span *tracing.Span, done func(any, error)) {
	if err := r.client.RequestTraced(op, payload, timeout, span, done); err != nil {
		done(nil, err)
	}
}

// observeRequest accounts for one completed request, before its callback
// runs: a failure is counted and reported to the monitor, a success
// reports the infrastructure reachable.
func (r *UMTSReference) observeRequest(err error) {
	if err != nil {
		r.mFailures.Inc()
	}
	if r.mon == nil {
		return
	}
	if err != nil {
		r.mon.ReportFailure("umts", err.Error())
		return
	}
	r.mon.ReportRecovery("umts")
}

// Node returns the underlying simnet node.
func (r *UMTSReference) Node() *simnet.Node { return r.node }
