// Package fuego re-implements the event-based communication layer the
// paper's 2G/3GReference builds on: the Fuego middleware — a distributed
// event framework with an XML-based messaging service — running between
// phones and a remote infrastructure server over the simulated UMTS medium.
//
// Context items and queries travelling this path are encapsulated in event
// notifications of 1696 bytes (§6.1), pay UMTS's highly variable latency
// (703–2766 ms), and charge the phone the full connection-open / transfer /
// radio-tail power cycle of Fig. 4.
package fuego

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"contory/internal/energy"
	"contory/internal/radio"
	"contory/internal/simnet"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// Message kinds on the UMTS medium.
const (
	kindNotify    = "fuego-notify"
	kindPublish   = "fuego-publish"
	kindSubscribe = "fuego-subscribe"
	kindUnsub     = "fuego-unsubscribe"
	kindRequest   = "fuego-request"
	kindReply     = "fuego-reply"
)

// Errors returned by the event layer.
var (
	ErrNoServer       = errors.New("fuego: server unreachable")
	ErrRequestTimeout = errors.New("fuego: request timed out")
	ErrNoHandler      = errors.New("fuego: no request handler registered")
)

// Notification is one event delivered to subscribers.
type Notification struct {
	Channel string
	Payload any
	// At is the virtual delivery time.
	At time.Time
}

// WireSize is the serialized size of an event notification (1696 B, §6.1).
func (n Notification) WireSize() int { return radio.UMTSEventBytes }

// Request is an on-demand query sent to the infrastructure.
type Request struct {
	// ID numbers the request within its client (From): the reply echoes
	// it back to the client that sent it.
	ID      uint64
	From    simnet.NodeID
	Op      string // operation name, dispatched by the server's handler
	Payload any
	// Span is the caller's trace span, propagated with the request so the
	// server can parent its handling span under it (nil = untraced). It
	// models trace-context propagation and adds no wire bytes.
	Span *tracing.Span
}

// Server is the infrastructure-side event broker: channels, subscriptions
// and request dispatch. It lives on an infrastructure node that phones
// reach over UMTS.
type Server struct {
	net  *simnet.Network
	node *simnet.Node
	umts *radio.UMTS

	mu        sync.Mutex
	subs      map[string]map[simnet.NodeID]bool // channel → subscribers
	handlers  map[string]func(Request) (any, error)
	consumers map[string]func(simnet.NodeID, any) // server-side channel taps
	events    int
}

// NewServer installs the event broker on the given (existing) node.
func NewServer(nw *simnet.Network, id simnet.NodeID, umts *radio.UMTS) (*Server, error) {
	node := nw.Node(id)
	if node == nil {
		return nil, fmt.Errorf("fuego: %w: %s", simnet.ErrUnknownNode, id)
	}
	s := &Server{
		net:       nw,
		node:      node,
		umts:      umts,
		subs:      make(map[string]map[simnet.NodeID]bool),
		handlers:  make(map[string]func(Request) (any, error)),
		consumers: make(map[string]func(simnet.NodeID, any)),
	}
	node.Handle(kindSubscribe, s.onSubscribe)
	node.Handle(kindUnsub, s.onUnsubscribe)
	node.Handle(kindPublish, s.onPublish)
	node.Handle(kindRequest, s.onRequest)
	return s, nil
}

// ID returns the server's node id.
func (s *Server) ID() simnet.NodeID { return s.node.ID() }

// HandleRequest registers the handler for an on-demand operation.
func (s *Server) HandleRequest(op string, h func(Request) (any, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = h
}

// HandleChannel installs a server-side consumer for events published on a
// channel (e.g. the infrastructure storing every incoming context item).
// Consumers run in addition to subscriber fan-out.
func (s *Server) HandleChannel(channel string, h func(from simnet.NodeID, payload any)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consumers[channel] = h
}

// Subscribers returns the subscriber ids of a channel, sorted.
func (s *Server) Subscribers(channel string) []simnet.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []simnet.NodeID
	for id := range s.subs[channel] {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Events returns the number of events routed through the broker.
func (s *Server) Events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

func (s *Server) onSubscribe(m simnet.Message) {
	ch, ok := m.Payload.(string)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subs[ch] == nil {
		s.subs[ch] = make(map[simnet.NodeID]bool)
	}
	s.subs[ch][m.From] = true
}

func (s *Server) onUnsubscribe(m simnet.Message) {
	ch, ok := m.Payload.(string)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs[ch], m.From)
}

// publishEnvelope is the wire form of a published event.
type publishEnvelope struct {
	Channel string
	Payload any
}

func (s *Server) onPublish(m simnet.Message) {
	env, ok := m.Payload.(publishEnvelope)
	if !ok {
		return
	}
	s.mu.Lock()
	s.events++
	consumer := s.consumers[env.Channel]
	s.mu.Unlock()
	if consumer != nil {
		consumer(m.From, env.Payload)
	}
	s.Notify(env.Channel, m.From, env.Payload)
}

// Notify sends payload to every subscriber of channel except the node
// except, in node-ID order, each over half a sampled UMTS round trip. It
// is the broker's fan-out of a published event, and lets a channel
// consumer forward what it received to another channel's subscribers.
func (s *Server) Notify(channel string, except simnet.NodeID, payload any) {
	s.mu.Lock()
	var targets []simnet.NodeID
	for id := range s.subs[channel] {
		if id != except {
			targets = append(targets, id)
		}
	}
	s.mu.Unlock()
	slices.Sort(targets)
	for _, to := range targets {
		n := Notification{Channel: channel, Payload: payload}
		// Downlink notification: half a UMTS round trip.
		_ = s.net.Send(simnet.Message{
			From:    s.node.ID(),
			To:      to,
			Medium:  radio.MediumUMTS,
			Kind:    kindNotify,
			Payload: n,
			Bytes:   n.WireSize(),
		}, s.umts.GetLatency()/2)
	}
}

// exchange is one request's envelope on the wire: the client sends it,
// and the server writes the answer into it and sends the same envelope
// back, so a round trip allocates one.
type exchange struct {
	Request
	// Reply is the handler's answer; Err its error text ("" = success).
	Reply any
	Err   string
}

func (s *Server) onRequest(m simnet.Message) {
	ex, ok := m.Payload.(*exchange)
	if !ok {
		return
	}
	req := ex.Request
	s.mu.Lock()
	h := s.handlers[req.Op]
	s.events++
	s.mu.Unlock()
	// Server-side handling span: dispatch is instantaneous in virtual time
	// (the round trip's latency lives on the UMTS up/downlink), but the
	// span records which infrastructure node served the request.
	sp := req.Span.ChildAt("fuego.handle", string(s.node.ID()), s.node.Timeline())
	sp.SetAttr("op", req.Op)
	if h == nil {
		ex.Err = ErrNoHandler.Error() + ": " + req.Op
	} else {
		out, err := h(req)
		if err != nil {
			ex.Err = err.Error()
		} else {
			ex.Reply = out
		}
	}
	if ex.Err != "" {
		sp.SetAttr("error", ex.Err)
	}
	sp.End()
	_ = s.net.Send(simnet.Message{
		From:    s.node.ID(),
		To:      req.From,
		Medium:  radio.MediumUMTS,
		Kind:    kindReply,
		Payload: ex,
		Bytes:   radio.UMTSEventBytes,
	}, s.umts.GetLatency()/2)
}

// Client is the phone-side endpoint of the event framework.
type Client struct {
	net    *simnet.Network
	node   *simnet.Node
	clock  vclock.Clock // the node's clock, which request timeouts run on
	server simnet.NodeID
	umts   *radio.UMTS

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]pendingReq
	// subs holds each channel's registrations in registration order.
	// Subscribe and cancel build a new slice, so a notification walks a
	// snapshot without the lock.
	subs map[string][]*subscription
	// observe, when set, sees every request's outcome (ObserveRequests).
	observe func(err error)
}

// subscription is one registration of a channel handler.
type subscription struct{ h func(Notification) }

// pendingReq is one in-flight request: its completion callback and the
// timeout that completes it when no reply does.
type pendingReq struct {
	done    func(any, error)
	timeout *vclock.Timer
}

// NewClient installs the event client on the given node, pointed at the
// server.
func NewClient(nw *simnet.Network, id, server simnet.NodeID, umts *radio.UMTS) (*Client, error) {
	node := nw.Node(id)
	if node == nil {
		return nil, fmt.Errorf("fuego: %w: %s", simnet.ErrUnknownNode, id)
	}
	c := &Client{
		net:     nw,
		node:    node,
		clock:   nw.ClockFor(id),
		server:  server,
		umts:    umts,
		pending: make(map[uint64]pendingReq),
		subs:    make(map[string][]*subscription),
	}
	node.Handle(kindNotify, c.onNotify)
	node.Handle(kindReply, c.onReply)
	return c, nil
}

// ObserveRequests installs fn to see the outcome of every request the
// client completes (answered, failed or timed out) just before the
// request's own callback runs, so a caller accounts for outcomes once
// instead of wrapping each callback. Install it before the first request.
func (c *Client) ObserveRequests(fn func(err error)) { c.observe = fn }

// complete hands a taken request its outcome.
func (c *Client) complete(req pendingReq, v any, err error) {
	if c.observe != nil {
		c.observe(err)
	}
	req.done(v, err)
}

// chargeConnection applies one UMTS connection power cycle (connection-open
// peak, transfer, radio tail) to the phone for a transfer of duration d.
func (c *Client) chargeConnection(d time.Duration) {
	ws := []radio.PowerWindow{
		{Label: "umts-conn-open", MW: energy.Milliwatts(radio.UMTSConnOpenPower), Dur: radio.UMTSConnOpenWindow},
		{Label: "umts-transfer", MW: energy.Milliwatts(radio.UMTSTransferPower), Offset: radio.UMTSConnOpenWindow, Dur: d},
		{Label: "umts-tail", MW: energy.Milliwatts(radio.UMTSTailPower), Offset: radio.UMTSConnOpenWindow + d, Dur: radio.UMTSTailWindow},
	}
	radio.ApplyWindows(c.node.Timeline(), c.net.Clock().Now(), ws)
}

// Publish pushes an event-encapsulated payload to the infrastructure
// (772.7 ms average uplink, Table 1) and returns the sampled uplink latency.
func (c *Client) Publish(channel string, payload any) (time.Duration, error) {
	d := c.umts.PublishLatency()
	err := c.net.Send(simnet.Message{
		From:    c.node.ID(),
		To:      c.server,
		Medium:  radio.MediumUMTS,
		Kind:    kindPublish,
		Payload: publishEnvelope{Channel: channel, Payload: payload},
		Bytes:   radio.UMTSEventBytes,
	}, d)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNoServer, err)
	}
	c.chargeConnection(d)
	return d, nil
}

// Subscribe registers h for a channel's notifications and returns the
// function that cancels this registration. Every handler registered on a
// channel receives each notification, in registration order. The first
// registration subscribes the phone at the server, which keeps one
// subscription per phone and channel; cancelling the last one
// unsubscribes it. Cancelling twice is a no-op.
func (c *Client) Subscribe(channel string, h func(Notification)) (unsubscribe func() error, err error) {
	s := &subscription{h: h}
	c.mu.Lock()
	first := len(c.subs[channel]) == 0
	c.subs[channel] = append(slices.Clip(c.subs[channel]), s)
	c.mu.Unlock()
	if first {
		d := c.umts.PublishLatency()
		err := c.net.Send(simnet.Message{
			From:    c.node.ID(),
			To:      c.server,
			Medium:  radio.MediumUMTS,
			Kind:    kindSubscribe,
			Payload: channel,
			Bytes:   radio.QueryBytes,
		}, d)
		if err != nil {
			c.drop(channel, s)
			return nil, fmt.Errorf("%w: %v", ErrNoServer, err)
		}
		c.chargeConnection(d)
	}
	return func() error { return c.unsubscribe(channel, s) }, nil
}

// drop removes one registration and reports whether it was the channel's
// last.
func (c *Client) drop(channel string, s *subscription) (last bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	subs := c.subs[channel]
	i := slices.Index(subs, s)
	if i < 0 {
		return false
	}
	if len(subs) == 1 {
		delete(c.subs, channel)
		return true
	}
	c.subs[channel] = slices.Delete(slices.Clone(subs), i, i+1)
	return false
}

// unsubscribe cancels one registration, and the phone's subscription at
// the server when it was the channel's last.
func (c *Client) unsubscribe(channel string, s *subscription) error {
	if !c.drop(channel, s) {
		return nil
	}
	err := c.net.Send(simnet.Message{
		From:    c.node.ID(),
		To:      c.server,
		Medium:  radio.MediumUMTS,
		Kind:    kindUnsub,
		Payload: channel,
		Bytes:   radio.QueryBytes,
	}, c.umts.PublishLatency())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoServer, err)
	}
	return nil
}

// Request performs an on-demand operation against the infrastructure. The
// callback receives the reply payload or an error; timeout 0 uses a default
// of twice the worst-case UMTS round trip.
func (c *Client) Request(op string, payload any, timeout time.Duration, done func(any, error)) error {
	return c.RequestTraced(op, payload, timeout, nil, done)
}

// RequestTraced is Request carrying the caller's trace span; the server
// parents a "fuego.handle" span under it (nil span = untraced).
func (c *Client) RequestTraced(op string, payload any, timeout time.Duration, span *tracing.Span, done func(any, error)) error {
	if timeout <= 0 {
		timeout = 2 * radio.UMTSGetLatencyMax
	}
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	timer := c.clock.After(timeout, func() {
		if req, ok := c.take(id); ok {
			c.complete(req, nil, ErrRequestTimeout)
		}
	})
	c.pending[id] = pendingReq{done: done, timeout: timer}
	c.mu.Unlock()

	// Uplink: half a sampled round trip; the reply pays the other half.
	d := c.umts.GetLatency() / 2
	err := c.net.Send(simnet.Message{
		From:    c.node.ID(),
		To:      c.server,
		Medium:  radio.MediumUMTS,
		Kind:    kindRequest,
		Payload: &exchange{Request: Request{ID: id, From: c.node.ID(), Op: op, Payload: payload, Span: span}},
		Bytes:   radio.UMTSEventBytes,
	}, d)
	if err != nil {
		if req, ok := c.take(id); ok {
			c.complete(req, nil, fmt.Errorf("%w: %v", ErrNoServer, err))
		}
		return nil
	}
	c.chargeConnection(2 * d)
	return nil
}

// take removes and returns a pending request, stopping its timeout so an
// answered request leaves nothing on the clock; ok is false when the
// request is no longer pending. Whoever takes the request (the reply, a
// send failure or the timeout itself) owns its one completion call.
func (c *Client) take(id uint64) (req pendingReq, ok bool) {
	c.mu.Lock()
	req, ok = c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ok {
		req.timeout.Stop()
	}
	return req, ok
}

func (c *Client) onNotify(m simnet.Message) {
	n, ok := m.Payload.(Notification)
	if !ok {
		return
	}
	n.At = c.net.Clock().Now()
	c.mu.Lock()
	subs := c.subs[n.Channel]
	c.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	// Receiving a notification wakes the radio briefly, once whatever the
	// number of handlers.
	c.node.Timeline().AddWindow("umts-notify",
		energy.Milliwatts(radio.UMTSTransferPower), 500*time.Millisecond)
	for _, s := range subs {
		s.h(n)
	}
}

func (c *Client) onReply(m simnet.Message) {
	ex, ok := m.Payload.(*exchange)
	if !ok {
		return
	}
	req, ok := c.take(ex.ID)
	if !ok {
		return // late reply after timeout
	}
	if ex.Err != "" {
		c.complete(req, nil, errors.New(ex.Err))
		return
	}
	c.complete(req, ex.Reply, nil)
}

// Node returns the client's simnet node.
func (c *Client) Node() *simnet.Node { return c.node }
