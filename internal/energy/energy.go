// Package energy models the power side of the Contory testbed: per-device
// power timelines, baseline operating-mode power states, a Fluke-189-style
// multimeter sampler, and a lithium-ion battery model.
//
// The paper measures energy by inserting a multimeter in series between the
// phone and its battery and integrating current × voltage as it flows. This
// package reproduces that methodology over virtual time: components declare
// piecewise-constant power contributions (continuous states such as
// "display" or "wifi-connected", and transient windows such as "bt-inquiry"
// for 13 s), and the timeline integrates them exactly, as they are drawn,
// into the intervals its readers open.
package energy

import (
	"fmt"
	"sync"
	"time"

	"contory/internal/metrics"
	"contory/internal/vclock"
)

// Milliwatts expresses power in mW, the unit used throughout the paper.
type Milliwatts float64

// Joules expresses energy.
type Joules float64

// Baseline operating-mode power draws measured in §6.1 of the paper with the
// GSM radio turned off (Nokia 6630). The decomposition is additive: e.g.
// display+backlight on = BaseIdle + DisplayOn + BacklightOn = 76.20 mW.
const (
	// BaseIdle is the phone with GSM off, display off, backlight off, BT off
	// (5.75 mW in the paper).
	BaseIdle Milliwatts = 5.75
	// DisplayOn is the marginal cost of the display (display on, backlight
	// off totals 14.35 mW).
	DisplayOn Milliwatts = 14.35 - 5.75
	// BacklightOn is the marginal cost of the back-light (display+backlight
	// totals 76.20 mW).
	BacklightOn Milliwatts = 76.20 - 14.35
	// BTScan is the marginal cost of Bluetooth in page and inquiry scan
	// state (totals 8.47 mW over BaseIdle).
	BTScan Milliwatts = 8.47 - 5.75
	// ContoryOn is the marginal cost of running the Contory middleware
	// (totals 10.11 mW over BaseIdle+BTScan).
	ContoryOn Milliwatts = 10.11 - 8.47
)

// BatteryVoltage is the nominal battery voltage measured in the paper
// (deviation < 2 % from 4.0965 V under load for the first hour).
const BatteryVoltage = 4.0965

// Timeline is one device's power draw, integrated as it is drawn, the way
// the paper's multimeter in series with the battery integrates current ×
// voltage as it flows. It keeps no history: only each named state's level,
// the edges of windows that have not ended yet, the fixed-point power in
// force, and the intervals its readers opened. A reader that wants the
// energy of a span opens an Interval when the span starts; every edge the
// timeline consumes while the interval is open cuts a segment of constant
// power and adds its energy to it.
//
// The fold is lazy: every write and every read first consumes the pending
// edges at or before now, in time order. The cuts, the fixed-point power of
// each segment and the order of the float additions are those of
// integrating a full history over the interval afterwards, so a reading is
// that integral bit for bit. A reading at t depends only on edges before t
// (an edge at t adds a zero-length segment), so peer lanes writing one
// timeline at the same virtual instant, in any order, leave every reading
// unchanged. All methods are safe for concurrent use; instants are Unix
// nanoseconds of virtual time.
type Timeline struct {
	clock vclock.Clock

	mu       sync.Mutex
	states   map[string]Milliwatts
	pending  []edge    // min-heap by instant: at most one edge per instant
	buf      [8]edge   // pending's first backing array
	level    int64     // the fixed-point power in force
	open     *Interval // head of the open intervals' list; life is on it
	life     Interval  // open from NewTimeline on: Joules reads it
	labels   []windowLabel
	labelIdx map[string]int32 // label name → index into labels
	metrics  *metrics.Registry
}

// edge is a step in the timeline's total fixed-point power at an instant.
// A zero step still cuts: a window of 0 mW, a same-instant SetState
// collapse, or a first SetState to 0 ends the segment in force there.
type edge struct {
	at    int64
	delta int64
}

// windowLabel is what a timeline keeps per window label, besides its name.
type windowLabel struct {
	joules Joules         // every window's energy, added in insertion order
	gauge  *metrics.Gauge // "energy.joules.<label>", nil until first use
}

// Interval integrates one timeline's power from the instant it is opened
// until the instant it is closed; reading an open interval integrates up
// to now. A reader embeds it in its own record, so opening one allocates
// nothing. The zero Interval reads 0; an open one must not be copied.
type Interval struct {
	tl         *Timeline
	prev, next *Interval // the timeline's open list
	from       int64     // the instant joules runs up to
	joules     Joules
}

// NewTimeline returns an empty Timeline bound to the given clock.
func NewTimeline(clock vclock.Clock) *Timeline {
	tl := &Timeline{
		clock:    clock,
		states:   make(map[string]Milliwatts),
		labelIdx: make(map[string]int32),
	}
	tl.pending = tl.buf[:0]
	tl.life = Interval{tl: tl, from: clock.Now().UnixNano()}
	tl.open = &tl.life
	return tl
}

// SetMetrics attaches a metrics registry: from now on every transient power
// window (BT inquiry, WiFi transfer, UMTS connection, GPS sample, …)
// accumulates its exact energy into an "energy.joules.<label>" gauge, the
// per-operation energy accounting of the paper's Table 2.
func (tl *Timeline) SetMetrics(reg *metrics.Registry) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.metrics = reg
	for i := range tl.labels {
		tl.labels[i].gauge = nil
	}
}

// nowLocked reads the clock and consumes every pending edge at or before
// now, in time order: each cuts the segment in force, then steps the
// power. Callers hold tl.mu.
func (tl *Timeline) nowLocked() int64 {
	now := tl.clock.Now().UnixNano()
	for len(tl.pending) > 0 && tl.pending[0].at <= now {
		e := tl.popEdge()
		tl.cutLocked(e.at)
		tl.level += e.delta
	}
	return now
}

// cutLocked ends the segment of constant power at instant at: every open
// interval adds the segment's energy since its own from, then moves from
// to at. A zero-power segment adds nothing: +0 never changes a sum that
// starts at +0.
func (tl *Timeline) cutLocked(at int64) {
	for iv := tl.open; iv != nil; iv = iv.next {
		iv.joules = iv.readLocked(at)
		iv.from = at
	}
}

// readLocked is the interval's energy up to instant at ≥ from, at the
// power in force.
func (iv *Interval) readLocked(at int64) Joules {
	if level := iv.tl.level; level != 0 {
		return iv.joules + joulesOver(levelMW(level), at-iv.from)
	}
	return iv.joules
}

// SetState sets the named continuous power state to mw starting now. Setting
// 0 turns the state off. Re-setting to the current level is a no-op.
func (tl *Timeline) SetState(name string, mw Milliwatts) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	now := tl.nowLocked()
	old, set := tl.states[name]
	if set && old == mw {
		return
	}
	tl.cutLocked(now)
	tl.level += fixedMW(mw) - fixedMW(old)
	tl.states[name] = mw
}

// State returns the current level of the named state (0 if never set).
func (tl *Timeline) State(name string) Milliwatts {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.states[name]
}

// AddWindow contributes mw for d starting now, labelled for traceability.
// Negative or zero durations are ignored.
func (tl *Timeline) AddWindow(label string, mw Milliwatts, d time.Duration) {
	tl.AddWindowAt(label, mw, tl.clock.Now(), d)
}

// AddWindowAt is AddWindow with an explicit start time; used by radio models
// that schedule power ahead of time (e.g. a transfer that begins after a
// connection-establishment delay). The timeline keeps no history, so a
// window may not start before now: that panics.
func (tl *Timeline) AddWindowAt(label string, mw Milliwatts, start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	s := start.UnixNano()
	if now := tl.nowLocked(); s < now {
		panic(fmt.Sprintf("energy: window %q starts %v before now", label, time.Duration(now-s)))
	}
	v := fixedMW(mw)
	tl.pushEdge(s, v)
	tl.pushEdge(s+int64(d), -v)

	i, ok := tl.labelIdx[label]
	if !ok {
		i = int32(len(tl.labels))
		tl.labels = append(tl.labels, windowLabel{})
		tl.labelIdx[label] = i
	}
	l := &tl.labels[i]
	l.joules += joulesOver(mw, int64(d))
	if tl.metrics == nil {
		return
	}
	if l.gauge == nil {
		l.gauge = tl.metrics.Gauge("energy.joules." + label)
	}
	l.gauge.Add(float64(mw) / 1000.0 * d.Seconds())
}

// pushEdge adds a power step at instant at, merged into the pending edge
// already there if there is one.
func (tl *Timeline) pushEdge(at, delta int64) {
	h := tl.pending
	for i := range h {
		if h[i].at == at {
			h[i].delta += delta
			return
		}
	}
	h = append(h, edge{at, delta})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	tl.pending = h
}

// popEdge removes and returns the earliest pending edge.
func (tl *Timeline) popEdge() edge {
	h := tl.pending
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].at < h[m].at {
			m = r
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	tl.pending = h
	return top
}

// Power returns the total power draw now: every state plus every window
// that has started and not yet ended.
func (tl *Timeline) Power() Milliwatts {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.nowLocked()
	return levelMW(tl.level)
}

// Joules returns the energy drawn since the timeline was made.
func (tl *Timeline) Joules() Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.life.readLocked(tl.nowLocked())
}

// WindowEnergy returns the total energy contributed by windows whose label
// matches the given label, each counted in full when it is added.
func (tl *Timeline) WindowEnergy(label string) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	i, ok := tl.labelIdx[label]
	if !ok {
		return 0
	}
	return tl.labels[i].joules
}

// Open starts iv integrating the timeline's power from now. iv must not be
// open; a closed interval may be reopened.
func (tl *Timeline) Open(iv *Interval) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if iv.tl == tl && iv.openLocked() {
		panic("energy: interval opened twice")
	}
	*iv = Interval{tl: tl, from: tl.nowLocked(), next: tl.open}
	tl.open.prev = iv // the list always holds life
	tl.open = iv
}

// Timeline returns the timeline the interval was opened on (nil if never).
func (iv *Interval) Timeline() *Timeline { return iv.tl }

// Joules returns the energy drawn from the interval's opening to now, or
// to its closing once it is closed.
func (iv *Interval) Joules() Joules {
	tl := iv.tl
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if !iv.openLocked() {
		return iv.joules
	}
	return iv.readLocked(tl.nowLocked())
}

// Close ends the interval now and returns its energy, which Joules
// returns from then on. Closing an interval that is not open returns its
// value.
func (iv *Interval) Close() Joules {
	tl := iv.tl
	if tl == nil {
		return 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if !iv.openLocked() {
		return iv.joules
	}
	now := tl.nowLocked()
	iv.joules = iv.readLocked(now)
	iv.from = now
	if iv.prev == nil {
		tl.open = iv.next
	} else {
		iv.prev.next = iv.next
	}
	if iv.next != nil {
		iv.next.prev = iv.prev
	}
	iv.prev, iv.next = nil, nil
	return iv.joules
}

// openLocked reports whether the interval is on its timeline's open list.
func (iv *Interval) openLocked() bool { return iv.prev != nil || iv.tl.open == iv }

// mwFixedScale is the fixed-point resolution of power summation: 1 nW.
// Every calibrated draw in the model has far fewer fractional digits, so
// rounding to this grid is exact for all inputs the testbed produces, and
// the power in force is an exact, order-independent sum however peer
// lanes interleave their writes.
const mwFixedScale = 1e6

func fixedMW(mw Milliwatts) int64 {
	v := float64(mw) * mwFixedScale
	if v >= 0 {
		return int64(v + 0.5)
	}
	return -int64(-v + 0.5)
}

// levelMW converts a fixed-point power sum back to milliwatts.
func levelMW(total int64) Milliwatts { return Milliwatts(float64(total) / mwFixedScale) }

// joulesOver is the energy of a constant draw held for d nanoseconds.
func joulesOver(mw Milliwatts, d int64) Joules {
	return Joules(float64(mw) / 1000.0 * time.Duration(d).Seconds())
}

// Sample is one multimeter reading.
type Sample struct {
	At    time.Time
	Since time.Duration // elapsed since the meter was attached
	Power Milliwatts
}

// Meter mimics the Fluke 189 multimeter of the paper's testbed: it samples
// the device's power draw at a fixed interval (the paper reads current
// approximately every 500 ms) and records a trace.
type Meter struct {
	clock    vclock.Clock
	timeline *Timeline
	interval time.Duration
	started  time.Time

	mu       sync.Mutex
	samples  []Sample
	timer    *vclock.Timer
	observer func(Sample)
}

// DefaultMeterInterval matches the paper's ~500 ms sampling period.
const DefaultMeterInterval = 500 * time.Millisecond

// NewMeter attaches a meter to the timeline. Call Start to begin sampling.
func NewMeter(clock vclock.Clock, tl *Timeline, interval time.Duration) (*Meter, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("energy: meter interval must be positive, got %v", interval)
	}
	return &Meter{clock: clock, timeline: tl, interval: interval}, nil
}

// Start begins periodic sampling. It records an immediate first sample.
func (m *Meter) Start() {
	m.mu.Lock()
	if m.timer != nil {
		m.mu.Unlock()
		return
	}
	m.started = m.clock.Now()
	m.mu.Unlock()

	m.record()
	t := m.clock.Every(m.interval, m.record)
	m.mu.Lock()
	m.timer = t
	m.mu.Unlock()
}

// Stop halts sampling. Safe to call multiple times.
func (m *Meter) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
}

// OnSample installs a callback invoked on every reading — e.g. feeding a
// Battery's in-rush protection, which is how the paper's communicators
// switched off when WiFi connected through the metering rig.
func (m *Meter) OnSample(f func(Sample)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observer = f
}

func (m *Meter) record() {
	now := m.clock.Now()
	p := m.timeline.Power()
	s := Sample{
		At:    now,
		Since: now.Sub(m.started),
		Power: p,
	}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	obs := m.observer
	m.mu.Unlock()
	if obs != nil {
		obs(s)
	}
}

// Samples returns a copy of the recorded trace.
func (m *Meter) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// MaxPower returns the largest sampled power (0 if no samples).
func (m *Meter) MaxPower() Milliwatts {
	m.mu.Lock()
	defer m.mu.Unlock()
	var maxP Milliwatts
	for _, s := range m.samples {
		if s.Power > maxP {
			maxP = s.Power
		}
	}
	return maxP
}

// MeanPower returns the average sampled power (0 if no samples).
func (m *Meter) MeanPower() Milliwatts {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return 0
	}
	var sum Milliwatts
	for _, s := range m.samples {
		sum += s.Power
	}
	return sum / Milliwatts(len(m.samples))
}
