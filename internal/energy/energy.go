// Package energy models the power side of the Contory testbed: per-device
// power timelines, baseline operating-mode power states, a Fluke-189-style
// multimeter sampler, and a lithium-ion battery model.
//
// The paper measures energy by inserting a multimeter in series between the
// phone and its battery and integrating current × voltage over time. This
// package reproduces that methodology over virtual time: components declare
// piecewise-constant power contributions (continuous states such as
// "display" or "wifi-connected", and transient windows such as "bt-inquiry"
// for 13 s), and the timeline integrates them exactly.
package energy

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
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

// changePoint is a step in a state's power level at a Unix-nanosecond
// instant.
type changePoint struct {
	at int64
	mw Milliwatts
}

// window is a transient power contribution over [start, end), in Unix
// nanoseconds. Its label is an index into the timeline's label table, so
// the record holds no pointers and a long history costs the GC nothing to
// scan.
type window struct {
	start, end int64
	mw         Milliwatts
	label      int32
}

// windowLog holds a timeline's transient power windows in the order they
// were added, in segments that are never re-grown: the first holds
// firstSegment windows, each next one twice as many up to maxSegment. A
// full log gains a segment instead of copying itself into a larger array,
// so a window costs no allocation unless it opens a segment. The segment
// directory, one slice header per segment, grows by append. Compact
// refills the segments from the front and keeps the emptied ones for
// reuse. Readers walk segs in order, then each segment in order: the order
// windows were added, as one append-grown slice would hold them.
type windowLog struct {
	segs [][]window // full up to segs[fill], empty after it
	fill int        // the segment the next window goes to
}

const (
	firstSegment = 4
	maxSegment   = 64
)

// segmentSize is the capacity of the log's i-th segment.
func segmentSize(i int) int {
	if i >= 4 { // firstSegment << 4 == maxSegment
		return maxSegment
	}
	return firstSegment << i
}

func (l *windowLog) push(w window) {
	for l.fill < len(l.segs) && len(l.segs[l.fill]) == cap(l.segs[l.fill]) {
		l.fill++
	}
	if l.fill == len(l.segs) {
		l.segs = append(l.segs, make([]window, 0, segmentSize(len(l.segs))))
	}
	l.segs[l.fill] = append(l.segs[l.fill], w)
}

// windowLabel is what a timeline keeps per window label, besides its name.
type windowLabel struct {
	// folded is the energy of this label's windows before the compaction
	// cutoff, which Compact dropped or trimmed away.
	folded Joules
	gauge  *metrics.Gauge // "energy.joules.<label>", nil until first use
}

// Timeline records the full power history of one device. All methods are
// safe for concurrent use. Power is the sum of all named continuous states
// plus all transient windows active at an instant. Instants are kept as
// Unix nanoseconds, which covers the years 1678 to 2262 and so every
// virtual-clock time; the zero Time orders before every record.
type Timeline struct {
	clock vclock.Clock

	mu        sync.Mutex
	states    map[string][]changePoint
	windows   windowLog
	labels    []windowLabel
	labelIdx  map[string]int32 // label name → index into labels
	compacted time.Time
	folded    Joules // energy of history dropped by Compact

	metrics *metrics.Registry
}

// NewTimeline returns an empty Timeline bound to the given clock.
func NewTimeline(clock vclock.Clock) *Timeline {
	return &Timeline{
		clock:    clock,
		states:   make(map[string][]changePoint),
		labelIdx: make(map[string]int32),
	}
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

// SetState sets the named continuous power state to mw starting now. Setting
// 0 turns the state off. Re-setting to the current level is a no-op.
func (tl *Timeline) SetState(name string, mw Milliwatts) {
	now := unixNano(tl.clock.Now())
	tl.mu.Lock()
	defer tl.mu.Unlock()
	pts := tl.states[name]
	if n := len(pts); n > 0 && pts[n-1].mw == mw {
		return
	}
	// Collapse multiple changes at the same instant to the last one.
	if n := len(pts); n > 0 && pts[n-1].at == now {
		pts[n-1].mw = mw
		return
	}
	tl.states[name] = append(pts, changePoint{at: now, mw: mw})
}

// State returns the current level of the named state (0 if never set).
func (tl *Timeline) State(name string) Milliwatts {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	pts := tl.states[name]
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].mw
}

// AddWindow contributes mw for d starting now, labelled for traceability.
// Negative or zero durations are ignored.
func (tl *Timeline) AddWindow(label string, mw Milliwatts, d time.Duration) {
	if d <= 0 {
		return
	}
	now := tl.clock.Now()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.addWindowLocked(label, mw, now, d)
}

// AddWindowAt is AddWindow with an explicit start time; used by radio models
// that schedule power ahead of time (e.g. a transfer that begins after a
// connection-establishment delay).
func (tl *Timeline) AddWindowAt(label string, mw Milliwatts, start time.Time, d time.Duration) {
	if d <= 0 {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.addWindowLocked(label, mw, start, d)
}

// addWindowLocked records the window and adds its exact energy (power ×
// duration) to its label's gauge. Callers hold tl.mu.
func (tl *Timeline) addWindowLocked(label string, mw Milliwatts, start time.Time, d time.Duration) {
	i, ok := tl.labelIdx[label]
	if !ok {
		i = int32(len(tl.labels))
		tl.labels = append(tl.labels, windowLabel{})
		tl.labelIdx[label] = i
	}
	s := unixNano(start)
	tl.windows.push(window{start: s, end: s + int64(d), mw: mw, label: i})
	if tl.metrics == nil {
		return
	}
	l := &tl.labels[i]
	if l.gauge == nil {
		l.gauge = tl.metrics.Gauge("energy.joules." + label)
	}
	l.gauge.Add(float64(mw) / 1000.0 * d.Seconds())
}

// PowerAt returns the total power draw at time t.
func (tl *Timeline) PowerAt(t time.Time) Milliwatts {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.powerAtLocked(unixNano(t))
}

// Power returns the total power draw now.
func (tl *Timeline) Power() Milliwatts {
	return tl.PowerAt(tl.clock.Now())
}

func (tl *Timeline) powerAtLocked(t int64) Milliwatts {
	// Accumulate in fixed-point nano-milliwatts so the total is exactly
	// order-independent: states live in a map and windows append in event
	// execution order, neither of which is stable across runs, and float
	// addition order would otherwise leak ULP differences into summaries.
	var total int64
	for _, pts := range tl.states {
		total += fixedMW(stateAt(pts, t))
	}
	for _, seg := range tl.windows.segs {
		for _, w := range seg {
			if w.start <= t && t < w.end {
				total += fixedMW(w.mw)
			}
		}
	}
	return levelMW(total)
}

// mwFixedScale is the fixed-point resolution of power summation: 1 nW.
// Every calibrated draw in the model has far fewer fractional digits, so
// rounding to this grid is exact for all inputs the testbed produces.
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

// stateAt evaluates a step function at t (0 before the first change).
func stateAt(pts []changePoint, t int64) Milliwatts {
	// Binary search for the last change at or before t.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].at > t })
	if i == 0 {
		return 0
	}
	return pts[i-1].mw
}

// unixNano converts t to the timeline's Unix-nanosecond instants,
// saturating outside their range so that the zero Time, the cutoff of a
// timeline never compacted, still orders before every record.
func unixNano(t time.Time) int64 {
	switch {
	case t.Before(minInstant):
		return math.MinInt64
	case t.After(maxInstant):
		return math.MaxInt64
	}
	return t.UnixNano()
}

var (
	minInstant = time.Unix(0, math.MinInt64)
	maxInstant = time.Unix(0, math.MaxInt64)
)

// edge is a step in the timeline's total fixed-point power.
type edge struct {
	at    int64
	delta int64
}

// edgeScratch recycles the edge slices of integrals too long for
// energyBetweenLocked's stack buffer: the end-of-run summary, the audit's
// energy check and every traced span integrate a whole phone history.
var edgeScratch = sync.Pool{New: func() any { return new([]edge) }}

// EnergyBetween integrates power over [t0, t1] and returns Joules. The
// integral is exact because the timeline is piecewise constant. After
// Compact, only spans at or after the compaction cutoff are meaningful.
func (tl *Timeline) EnergyBetween(t0, t1 time.Time) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.energyBetweenLocked(t0, t1)
}

// energyBetweenLocked integrates in one sweep. Every state change point is
// an edge carrying the change of its fixed-point level, zero included (a
// same-instant SetState collapse can leave one), and every window an edge
// of ±its power at its start and at its end. Edges at or before t0 sum to
// the power at t0; edges inside (t0, t1) are sorted by time and cut the
// span into segments of constant power. Later edges cannot matter. The
// cuts, the per-segment power and the order in which segment energies
// are added are those of evaluating the power afresh at every state
// change and window boundary inside the span, so the result is the same
// float64 in O(E log E) instead of O(E·(S+W)).
func (tl *Timeline) energyBetweenLocked(t0, t1 time.Time) Joules {
	if !t1.After(t0) {
		return 0
	}
	lo, hi := unixNano(t0), unixNano(t1)
	var buf [64]edge
	level, n := tl.edgesLocked(lo, hi, buf[:])
	cuts := buf[:min(n, len(buf))]
	var scratch *[]edge
	if n > len(buf) {
		scratch = edgeScratch.Get().(*[]edge)
		*scratch = slices.Grow((*scratch)[:0], n)
		cuts = (*scratch)[:n]
		tl.edgesLocked(lo, hi, cuts)
	}
	slices.SortFunc(cuts, func(a, b edge) int { return cmp.Compare(a.at, b.at) })

	// A zero-power segment adds +0, which leaves the sum unchanged; skipping
	// it also keeps the unbounded first segment of an integral from the
	// zero Time out of the arithmetic.
	var joules Joules
	from := lo
	for i := 0; i < len(cuts); {
		at := cuts[i].at
		if level != 0 {
			joules += joulesOver(levelMW(level), at-from)
		}
		for ; i < len(cuts) && cuts[i].at == at; i++ {
			level += cuts[i].delta
		}
		from = at
	}
	if level != 0 {
		joules += joulesOver(levelMW(level), hi-from)
	}
	if scratch != nil {
		edgeScratch.Put(scratch)
	}
	return joules
}

// edgesLocked returns the fixed-point power at lo and the number of edges
// inside (lo, hi), writing as many of those edges as fit into dst.
func (tl *Timeline) edgesLocked(lo, hi int64, dst []edge) (level int64, n int) {
	put := func(at, delta int64) {
		if n < len(dst) {
			dst[n] = edge{at, delta}
		}
		n++
	}
	for _, pts := range tl.states {
		var prev int64
		for _, p := range pts {
			if p.at >= hi {
				break // change points are in time order
			}
			v := fixedMW(p.mw)
			if p.at <= lo {
				level += v - prev
			} else {
				put(p.at, v-prev)
			}
			prev = v
		}
	}
	for _, seg := range tl.windows.segs {
		for _, w := range seg {
			if w.end <= lo || w.start >= hi {
				continue
			}
			v := fixedMW(w.mw)
			if w.start <= lo {
				level += v
			} else {
				put(w.start, v)
			}
			if w.end < hi {
				put(w.end, -v)
			}
		}
	}
	return level, n
}

// EnergyBetweenClamped is EnergyBetween with the start clamped to the
// compaction cutoff: integrating a span that began before a Compact would
// silently read a truncated history as zero power. Used by the tracing
// layer, whose span intervals may predate a long run's compaction.
func (tl *Timeline) EnergyBetweenClamped(t0, t1 time.Time) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if t0.Before(tl.compacted) {
		t0 = tl.compacted
	}
	return tl.energyBetweenLocked(t0, t1)
}

// WindowEnergy returns the total energy contributed by windows whose label
// matches the given label, regardless of when they occurred: the share of
// history that Compact dropped or trimmed is counted too.
func (tl *Timeline) WindowEnergy(label string) Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	i, ok := tl.labelIdx[label]
	if !ok {
		return 0
	}
	joules := tl.labels[i].folded
	for _, seg := range tl.windows.segs {
		for _, w := range seg {
			if w.label == i {
				joules += joulesOver(w.mw, w.end-w.start)
			}
		}
	}
	return joules
}

// Compact folds all history strictly before the cutoff into a single
// accumulated energy figure, bounding the timeline's memory on long runs
// (a day of 1 Hz GPS sampling would otherwise accumulate ~86k windows).
// After compaction, PowerAt and EnergyBetween are only valid at or after
// the cutoff; FoldedEnergy returns the energy of the dropped history.
// Windows still active at the cutoff are trimmed, not dropped.
func (tl *Timeline) Compact(cutoff time.Time) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if !cutoff.After(tl.compacted) {
		return
	}
	// Integrate the dropped span exactly before mutating anything.
	tl.folded += tl.energyBetweenLocked(tl.compacted, cutoff)
	c := unixNano(cutoff)

	// States: keep only the value in force at the cutoff, restamped to it,
	// plus later changes.
	for name, pts := range tl.states {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at > c })
		if i == 0 {
			continue // no history before the cutoff
		}
		n := copy(pts, pts[i-1:])
		pts[0].at = c
		tl.states[name] = pts[:n]
	}
	// Windows: drop those fully before the cutoff; trim those straddling
	// it. Their pre-cutoff share moves to the label's folded energy. Kept
	// windows move forward in place, in order: the write position (ws, wi)
	// never passes the one being read.
	log := &tl.windows
	ws, wi := 0, 0
	for _, seg := range log.segs {
		for _, w := range seg {
			if w.start < c {
				tl.labels[w.label].folded += joulesOver(w.mw, min(w.end, c)-w.start)
				if w.end <= c {
					continue
				}
				w.start = c
			}
			if wi == cap(log.segs[ws]) {
				ws, wi = ws+1, 0
			}
			log.segs[ws] = append(log.segs[ws][:wi], w)
			wi++
		}
	}
	for i := ws + 1; i < len(log.segs); i++ {
		log.segs[i] = log.segs[i][:0]
	}
	if len(log.segs) > 0 {
		log.segs[ws] = log.segs[ws][:wi]
	}
	log.fill = ws
	tl.compacted = cutoff
}

// CompactedAt returns the current compaction cutoff (zero if never
// compacted).
func (tl *Timeline) CompactedAt() time.Time {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.compacted
}

// FoldedEnergy returns the total energy of history dropped by Compact.
func (tl *Timeline) FoldedEnergy() Joules {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.folded
}

// WindowCount returns the number of retained transient windows.
func (tl *Timeline) WindowCount() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	n := 0
	for _, seg := range tl.windows.segs {
		n += len(seg)
	}
	return n
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
	p := m.timeline.PowerAt(now)
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
