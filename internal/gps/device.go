package gps

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"contory/internal/cxt"
	"contory/internal/radio"
	"contory/internal/simnet"
)

// Message kinds used between phones and GPS devices on the BT medium.
const (
	// KindSubscribe asks the device to start streaming NMEA bursts.
	KindSubscribe = "gps-subscribe"
	// KindUnsubscribe stops the stream for the sender.
	KindUnsubscribe = "gps-unsubscribe"
	// KindNMEA carries one 340-byte NMEA burst (payload: string).
	KindNMEA = "gps-nmea"
)

// SampleInterval is the receiver's reporting rate (1 Hz).
const SampleInterval = time.Second

// Device is a simulated BT GPS receiver: a simnet node that streams NMEA
// bursts at 1 Hz to every subscribed phone while powered and linked.
// Killing the device (SetFailed) reproduces the Fig. 5 GPS failure.
type Device struct {
	node *simnet.Node
	net  *simnet.Network

	mu  sync.Mutex
	fix cxt.Fix
	// subs is the subscribers in ID order. Subscribing and unsubscribing
	// build a new slice, so a tick sends from its snapshot without copying
	// or sorting.
	subs   []simnet.NodeID
	failed bool
	ticker interface{ Stop() }
}

// NewDevice registers a GPS device node with the given id on the network.
func NewDevice(nw *simnet.Network, id simnet.NodeID, initial cxt.Fix) (*Device, error) {
	node, err := nw.AddNode(id, simnet.Position{})
	if err != nil {
		return nil, fmt.Errorf("gps: add device node: %w", err)
	}
	d := &Device{
		node: node,
		net:  nw,
		fix:  initial,
	}
	node.Handle(KindSubscribe, func(m simnet.Message) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if i, found := slices.BinarySearch(d.subs, m.From); !found {
			d.subs = slices.Insert(slices.Clone(d.subs), i, m.From)
		}
	})
	node.Handle(KindUnsubscribe, func(m simnet.Message) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if i, found := slices.BinarySearch(d.subs, m.From); found {
			d.subs = slices.Delete(slices.Clone(d.subs), i, i+1)
		}
	})
	d.ticker = nw.ClockFor(id).Every(SampleInterval, d.tick)
	return d, nil
}

// Node returns the device's simnet node (for linking to phones).
func (d *Device) Node() *simnet.Node { return d.node }

// ID returns the device's node id.
func (d *Device) ID() simnet.NodeID { return d.node.ID() }

// SetFix updates the device's current position.
func (d *Device) SetFix(f cxt.Fix) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fix = f
}

// Fix returns the current position.
func (d *Device) Fix() cxt.Fix {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fix
}

// SetFailed switches the device off (true) or back on (false) — the
// "manually switching off the GPS device" of Fig. 5.
func (d *Device) SetFailed(failed bool) {
	d.mu.Lock()
	d.failed = failed
	d.mu.Unlock()
	d.node.SetDown(failed)
}

// Failed reports whether the device is switched off.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Close stops the device's sampling ticker.
func (d *Device) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

// tick streams one NMEA burst to every subscriber still linked over BT,
// in NodeID order so same-instant deliveries replay identically. With no
// subscribers there is nothing to send, so no burst is rendered.
func (d *Device) tick() {
	d.mu.Lock()
	if d.failed || len(d.subs) == 0 {
		d.mu.Unlock()
		return
	}
	fix, subs := d.fix, d.subs
	d.mu.Unlock()

	// One interface box per burst, shared by every subscriber's frame.
	var burst any = Burst(fix, d.net.Clock().Now())
	for _, to := range subs {
		msg := simnet.Message{
			From:    d.node.ID(),
			To:      to,
			Medium:  radio.MediumBT,
			Kind:    KindNMEA,
			Payload: burst,
			Bytes:   BurstBytes,
		}
		// Streaming over an established link: a short serial latency.
		// Unreachable subscribers are dropped silently; the phone's
		// BTReference detects the gap and reports the failure.
		_ = d.net.Send(msg, 50*time.Millisecond)
	}
}
