package refs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"contory/internal/audit"
	"contory/internal/cxt"
	"contory/internal/energy"
	"contory/internal/gps"
	"contory/internal/metrics"
	"contory/internal/monitor"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/vclock"
)

// BT message kinds.
const (
	kindSDPQuery = "bt-sdp-query"
	kindSDPReply = "bt-sdp-reply"
	kindBTGet    = "bt-get"
	kindBTReply  = "bt-get-reply"
)

// BT errors.
var (
	ErrBTTimeout   = errors.New("refs: bt operation timed out")
	ErrNoService   = errors.New("refs: bt service not found")
	ErrGPSNoSignal = errors.New("refs: gps stream lost")
)

// ServiceRecord is an entry in the device's Service Discovery Database
// (SDDB): a context item encapsulated in a DataElement and made visible to
// external BT entities.
type ServiceRecord struct {
	Name string // service name; by convention the context type
	Item cxt.Item
}

// BTReference provides JSR-82-style discovery (device discovery, service
// discovery, service registration), communication, and device management
// over the simulated Bluetooth medium.
type BTReference struct {
	clock vclock.Clock
	net   *simnet.Network
	node  *simnet.Node
	bt    *radio.BT
	mon   *monitor.Monitor

	mu         sync.Mutex
	sddb       map[string]ServiceRecord
	pending    map[string]*pendingReq // request id → in-flight request
	nextID     int
	reqTimeout time.Duration // 0 = btRequestTimeout
	gps        map[simnet.NodeID]*gpsStream

	mInquiries  *metrics.Counter
	mSDPQueries *metrics.Counter
	mGets       *metrics.Counter
	mRegisters  *metrics.Counter
	mGPSFixes   *metrics.Counter

	// Invariant auditing (nil-safe): every in-flight SDP/get exchange moves
	// the refs.bt.inflight balance, which must return to zero at quiesce.
	audit      *audit.Auditor
	auditOwner string
}

// gpsStream is the phone's subscription to one GPS device's NMEA stream,
// shared by every consumer of that device: the first consumer to connect
// subscribes, the last to disconnect unsubscribes, and one watchdog guards
// the stream for all of them.
type gpsStream struct {
	dev simnet.NodeID
	// consumers is in connection order. Connect and disconnect build a new
	// slice, so a fix is dispatched from a snapshot.
	consumers []*gpsConsumer
	watchdog  *vclock.Timer
	lost      func() // the watchdog callback, bound once per stream
	failed    bool
}

type gpsConsumer struct {
	onFix     func(cxt.Fix)
	onFailure func()
}

// pendingReq is one in-flight SDP or get exchange: the completion callback
// plus the timeout event guarding it. Completion stops the timer
// (heap-removal), so long runs don't accumulate dead timeout events.
type pendingReq struct {
	done    func(any, error)
	timeout *vclock.Timer
}

// NewBTReference installs the BT reference on the node.
func NewBTReference(nw *simnet.Network, id simnet.NodeID, bt *radio.BT, mon *monitor.Monitor) (*BTReference, error) {
	node := nw.Node(id)
	if node == nil {
		return nil, fmt.Errorf("refs: bt: %w: %s", simnet.ErrUnknownNode, id)
	}
	r := &BTReference{
		clock:   nw.ClockFor(id),
		net:     nw,
		node:    node,
		bt:      bt,
		mon:     mon,
		sddb:    make(map[string]ServiceRecord),
		pending: make(map[string]*pendingReq),
		gps:     make(map[simnet.NodeID]*gpsStream),
	}
	node.Handle(kindSDPQuery, r.onSDPQuery)
	node.Handle(kindSDPReply, r.onReply)
	node.Handle(kindBTGet, r.onGet)
	node.Handle(kindBTReply, r.onReply)
	node.Handle(gps.KindNMEA, r.onNMEA)
	// BT page/inquiry-scan baseline while the reference is active.
	node.Timeline().SetState("bt-scan", energy.BTScan)
	return r, nil
}

// SetMetrics attaches a registry counting the reference's BT operations:
// device inquiries, SDP service discoveries, one-hop gets, service
// registrations and GPS fixes received.
func (r *BTReference) SetMetrics(reg *metrics.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mInquiries = reg.Counter("refs.bt.inquiries")
	r.mSDPQueries = reg.Counter("refs.bt.service_discoveries")
	r.mGets = reg.Counter("refs.bt.gets")
	r.mRegisters = reg.Counter("refs.bt.service_registrations")
	r.mGPSFixes = reg.Counter("refs.bt.gps_fixes")
}

// SetAudit attaches the runtime invariant auditor: in-flight request
// accounting (newRequest/take) joins the refcount conservation law under
// the given owner (device) id.
func (r *BTReference) SetAudit(a *audit.Auditor, owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.audit = a
	r.auditOwner = owner
}

// Close releases the BT reference's continuous power state and watchdogs.
func (r *BTReference) Close() {
	r.node.Timeline().SetState("bt-scan", 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.gps {
		s.watchdog.Stop()
		s.consumers = nil // a later disconnect is a no-op
	}
	clear(r.gps)
}

// Discover runs a BT inquiry (≈ 13 s) and reports the discoverable BT
// devices in range, in ID order.
func (r *BTReference) Discover(done func([]simnet.NodeID)) {
	r.mInquiries.Inc()
	d, ws := r.bt.DeviceDiscovery()
	applyWindows(r.node, ws, r.clock.Now())
	r.clock.After(d, func() {
		done(r.net.Neighbors(r.node.ID(), radio.MediumBT))
	})
}

// RegisterService creates a service record describing an offered context
// service and adds it to the SDDB (the slow BT publish path of Table 1:
// DataElement encapsulation plus ServiceRecord registration, ≈ 140 ms).
// done fires when the registration completes.
func (r *BTReference) RegisterService(rec ServiceRecord, done func()) time.Duration {
	r.mRegisters.Inc()
	d, ws := r.bt.Publish(rec.Item.WireSize())
	applyWindows(r.node, ws, r.clock.Now())
	r.clock.After(d, func() {
		r.mu.Lock()
		r.sddb[rec.Name] = rec
		r.mu.Unlock()
		if done != nil {
			done()
		}
	})
	return d
}

// UnregisterService removes a service record (idempotent, immediate).
func (r *BTReference) UnregisterService(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sddb, name)
}

// Services returns the local SDDB service names, sorted.
func (r *BTReference) Services() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.sddb))
	for n := range r.sddb {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DiscoverServices performs SDP service discovery against a remote device
// (≈ 1.12 s), reporting the remote SDDB's service names.
func (r *BTReference) DiscoverServices(dev simnet.NodeID, done func([]string, error)) {
	r.mSDPQueries.Inc()
	d, ws := r.bt.ServiceDiscovery()
	applyWindows(r.node, ws, r.clock.Now())
	id := r.newRequest(func(v any, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		names, ok := v.([]string)
		if !ok {
			done(nil, fmt.Errorf("refs: bt: bad sdp reply type %T", v))
			return
		}
		done(names, nil)
	}, r.requestTimeout())
	err := r.net.Send(simnet.Message{
		From:    r.node.ID(),
		To:      dev,
		Medium:  radio.MediumBT,
		Kind:    kindSDPQuery,
		Payload: id,
		Bytes:   64,
	}, d)
	if err != nil {
		r.fail(id, fmt.Errorf("refs: bt sdp: %w", err), string(dev))
	}
}

// Get retrieves the value of a named context service from a discovered
// device: the one-hop BT data exchange of Table 1 (≈ 31.8 ms, 0.099 J).
func (r *BTReference) Get(dev simnet.NodeID, service string, done func(cxt.Item, error)) {
	r.mGets.Inc()
	d, ws := r.bt.Get(radio.ItemBytesMax)
	applyWindows(r.node, ws, r.clock.Now())
	id := r.newRequest(func(v any, err error) {
		if err != nil {
			done(cxt.Item{}, err)
			return
		}
		it, ok := v.(cxt.Item)
		if !ok {
			done(cxt.Item{}, fmt.Errorf("refs: bt: bad get reply type %T", v))
			return
		}
		done(it, nil)
	}, r.requestTimeout())
	err := r.net.Send(simnet.Message{
		From:    r.node.ID(),
		To:      dev,
		Medium:  radio.MediumBT,
		Kind:    kindBTGet,
		Payload: getRequest{ID: id, Service: service},
		Bytes:   radio.QueryBytes,
	}, d/2)
	if err != nil {
		r.fail(id, fmt.Errorf("refs: bt get: %w", err), string(dev))
	}
}

type getRequest struct {
	ID      string
	Service string
}

type reply struct {
	ID      string
	Payload any
	Err     string
}

// btRequestTimeout is the default bound on one SDP or get exchange.
const btRequestTimeout = 30 * time.Second

// SetRequestTimeout overrides the default 30 s bound on SDP and get
// exchanges (core.WithRetryPolicy plumbs the factory-wide timeout here).
// d <= 0 restores the default. Last-write-wins.
func (r *BTReference) SetRequestTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqTimeout = d
}

// RequestTimeout returns the effective per-exchange timeout.
func (r *BTReference) RequestTimeout() time.Duration { return r.requestTimeout() }

func (r *BTReference) requestTimeout() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reqTimeout > 0 {
		return r.reqTimeout
	}
	return btRequestTimeout
}

func (r *BTReference) newRequest(done func(any, error), timeout time.Duration) string {
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("%s-bt-%d", r.node.ID(), r.nextID)
	req := &pendingReq{done: done}
	r.pending[id] = req
	aud, owner := r.audit, r.auditOwner
	r.mu.Unlock()
	aud.Add(r.clock.Now(), owner, "refs.bt.inflight", 1)
	t := r.clock.After(timeout, func() {
		if timed := r.take(id); timed != nil {
			timed.done(nil, ErrBTTimeout)
		}
	})
	r.mu.Lock()
	req.timeout = t
	r.mu.Unlock()
	return id
}

// take atomically removes and returns the pending request, stopping its
// timeout event so a completed request leaves nothing on the clock's heap.
// Whoever takes the request (reply, failure, or the timeout itself) owns
// the single completion call.
func (r *BTReference) take(id string) *pendingReq {
	r.mu.Lock()
	req := r.pending[id]
	delete(r.pending, id)
	var t *vclock.Timer
	if req != nil {
		t = req.timeout
	}
	aud, owner := r.audit, r.auditOwner
	r.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if req != nil {
		aud.Add(r.clock.Now(), owner, "refs.bt.inflight", -1)
	}
	return req
}

// Pending returns the number of in-flight requests (for leak tests).
func (r *BTReference) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// fail completes a pending request with an error and reports the failure.
func (r *BTReference) fail(id string, err error, resource string) {
	req := r.take(id)
	if r.mon != nil && resource != "" {
		r.mon.ReportFailure(resource, err.Error())
	}
	if req != nil {
		req.done(nil, err)
	}
}

func (r *BTReference) onSDPQuery(m simnet.Message) {
	id, ok := m.Payload.(string)
	if !ok {
		return
	}
	names := r.Services()
	_ = r.net.Send(simnet.Message{
		From:    r.node.ID(),
		To:      m.From,
		Medium:  radio.MediumBT,
		Kind:    kindSDPReply,
		Payload: reply{ID: id, Payload: names},
		Bytes:   64 * (len(names) + 1),
	}, 100*time.Millisecond)
}

func (r *BTReference) onGet(m simnet.Message) {
	req, ok := m.Payload.(getRequest)
	if !ok {
		return
	}
	// Server-side provide cost (Table 2: 0.133 J per provided item).
	d, ws := r.bt.Provide(radio.ItemBytesMax)
	applyWindows(r.node, ws, r.clock.Now())
	rep := reply{ID: req.ID}
	r.mu.Lock()
	rec, found := r.sddb[req.Service]
	r.mu.Unlock()
	if !found {
		rep.Err = ErrNoService.Error() + ": " + req.Service
	} else {
		rep.Payload = rec.Item
	}
	_ = r.net.Send(simnet.Message{
		From:    r.node.ID(),
		To:      m.From,
		Medium:  radio.MediumBT,
		Kind:    kindBTReply,
		Payload: rep,
		Bytes:   radio.ItemBytesMax,
	}, d/2)
}

func (r *BTReference) onReply(m simnet.Message) {
	rep, ok := m.Payload.(reply)
	if !ok {
		return
	}
	req := r.take(rep.ID)
	if req == nil {
		return
	}
	if rep.Err != "" {
		req.done(nil, errors.New(rep.Err))
		return
	}
	req.done(rep.Payload, nil)
}

// gpsWatchdogGrace is how long the stream may stall before the reference
// declares the GPS lost (the field trials saw ~1 BT disconnection/hour).
const gpsWatchdogGrace = 3500 * time.Millisecond

// ConnectGPS subscribes to a BT-GPS device's NMEA stream. onFix receives
// each parsed fix; if the stream stalls, the failure is reported to the
// monitor and onFailure fires once. The phone pays the 0.422 J per-sample
// cost of Table 2 once per burst, however many consumers it has. The
// consumers of one device share one stream and get its fixes in connection
// order: the first subscribes to the device, and a later one joins the
// stream when the device is still linked. The returned disconnect detaches
// this consumer (calling it again does nothing); the last consumer to
// detach unsubscribes from the device.
func (r *BTReference) ConnectGPS(dev simnet.NodeID, onFix func(cxt.Fix), onFailure func()) (disconnect func(), err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.gps[dev]
	if s == nil {
		err := r.net.Send(simnet.Message{
			From:   r.node.ID(),
			To:     dev,
			Medium: radio.MediumBT,
			Kind:   gps.KindSubscribe,
			Bytes:  32,
		}, 50*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("refs: connect gps %s: %w", dev, err)
		}
		s = &gpsStream{dev: dev}
		s.lost = func() { r.gpsLost(s) }
		s.watchdog = r.clock.After(gpsWatchdogGrace, s.lost)
		r.gps[dev] = s
	} else if !r.net.Linked(r.node.ID(), dev, radio.MediumBT) {
		return nil, fmt.Errorf("refs: connect gps %s: %w", dev, simnet.ErrNotLinked)
	}
	c := &gpsConsumer{onFix: onFix, onFailure: onFailure}
	s.consumers = append(slices.Clip(s.consumers), c)
	return func() { r.disconnectGPS(s, c) }, nil
}

// disconnectGPS detaches one consumer from its stream, and unsubscribes
// from the device and stops the watchdog when it was the last.
func (r *BTReference) disconnectGPS(s *gpsStream, c *gpsConsumer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := slices.Index(s.consumers, c)
	if i < 0 {
		return
	}
	s.consumers = slices.Delete(slices.Clone(s.consumers), i, i+1)
	if len(s.consumers) > 0 {
		return
	}
	_ = r.net.Send(simnet.Message{
		From:   r.node.ID(),
		To:     s.dev,
		Medium: radio.MediumBT,
		Kind:   gps.KindUnsubscribe,
		Bytes:  32,
	}, 50*time.Millisecond)
	s.watchdog.Stop()
	delete(r.gps, s.dev)
}

func (r *BTReference) gpsLost(s *gpsStream) {
	r.mu.Lock()
	if r.gps[s.dev] != s || s.failed {
		r.mu.Unlock()
		return
	}
	s.failed = true
	consumers := s.consumers
	r.mu.Unlock()
	if r.mon != nil {
		r.mon.ReportFailure(string(s.dev), ErrGPSNoSignal.Error())
	}
	for _, c := range consumers {
		if c.onFailure != nil {
			c.onFailure()
		}
	}
}

func (r *BTReference) onNMEA(m simnet.Message) {
	burst, ok := m.Payload.(string)
	if !ok {
		return
	}
	r.mu.Lock()
	s := r.gps[m.From]
	if s == nil {
		r.mu.Unlock()
		return
	}
	// Stream alive: rewind the watchdog; a recovered stream clears the
	// failure.
	s.watchdog.Stop()
	wasFailed := s.failed
	s.failed = false
	s.watchdog = r.clock.After(gpsWatchdogGrace, s.lost)
	consumers := s.consumers
	r.mu.Unlock()

	if wasFailed && r.mon != nil {
		r.mon.ReportRecovery(string(s.dev))
	}
	// Per-sample energy: 340-byte NMEA burst with BT segmentation.
	r.mGPSFixes.Inc()
	_, ws := r.bt.GPSSample()
	applyWindows(r.node, ws, r.clock.Now())
	fix, err := gps.ParseBurst(burst)
	if err != nil {
		return
	}
	for _, c := range consumers {
		if c.onFix != nil {
			c.onFix(fix)
		}
	}
}

// Node returns the underlying simnet node.
func (r *BTReference) Node() *simnet.Node { return r.node }
