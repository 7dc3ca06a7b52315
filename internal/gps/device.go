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
	// KindNMEA carries one 340-byte NMEA burst (payload: a Sample, whose
	// Text is the burst's wire text).
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
	// reading is fix rendered and parsed, built by the first tick with a
	// subscriber after NewDevice or SetFix (nil until then), so a device
	// that nobody reads, or whose fix never changes, renders no text per
	// tick.
	reading *reading
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
	d.reading = nil
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
// subscribers there is nothing to send, so no burst is built. A tick sends
// one Sample, shared by every subscriber's frame: the fix's reading, built
// once per fix, and the tick's time.
func (d *Device) tick() {
	d.mu.Lock()
	if d.failed || len(d.subs) == 0 {
		d.mu.Unlock()
		return
	}
	now := d.net.Clock().Now()
	if d.reading == nil {
		d.reading = newReading(d.fix, now)
	}
	var burst any = Sample{r: d.reading, at: now}
	subs := d.subs
	d.mu.Unlock()

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

// Sample is one burst as the device sends it: the reading of the fix in
// force and the virtual time of the tick that sent it. It is immutable,
// holds no text, and its Text and Fix agree with the NMEA codec: Fix
// returns what ParseBurst(Text()) does.
type Sample struct {
	r  *reading
	at time.Time
}

// reading is a fix together with what ParseBurst returns for its burst.
// ParseRMC reads only the RMC sentence's status, position, speed and
// course, never its time or date, so the parse of Burst(fix, t) is the
// same at every t and one reading serves every tick until the fix
// changes.
type reading struct {
	fix    cxt.Fix
	parsed cxt.Fix
	err    error
}

func newReading(fix cxt.Fix, at time.Time) *reading {
	parsed, err := ParseBurst(Burst(fix, at))
	return &reading{fix: fix, parsed: parsed, err: err}
}

// NewSample renders the burst for fix at the given time and parses it
// once, as a device does when its fix changes.
func NewSample(fix cxt.Fix, at time.Time) Sample {
	return Sample{r: newReading(fix, at), at: at}
}

// At returns the virtual time of the tick that sent the burst.
func (s Sample) At() time.Time { return s.at }

// Text renders the burst's 340-byte NMEA wire text, stamped with At.
func (s Sample) Text() string { return Burst(s.r.fix, s.at) }

// Fix returns the fix the phone parses out of Text, or the parse error,
// without rendering or parsing anything.
func (s Sample) Fix() (cxt.Fix, error) { return s.r.parsed, s.r.err }
