// Package timeline is Contory's deterministic flight recorder: a
// vclock-driven sampler that scrapes a metrics.Registry every Interval of
// virtual time into a bounded ring of delta-windows, evaluates declarative
// SLOs per window, and fires multi-window burn-rate alerts whose cause
// attribution joins the alert window against active chaos faults and audit
// violations.
//
// Sampling ticks are scheduled on the run's virtual clock; on a sharded
// world the recorder hangs off the simulator's global lane, so every tick
// runs as a barrier between lane batches exactly like chaos injections and
// churn scripts. A window is therefore a pure function of the seed: counters
// become per-window rates, gauges last-values, histograms per-window
// quantile points via metrics.HistogramPoint.Delta — byte-identical at any
// worker count or GOMAXPROCS.
package timeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"contory/internal/audit"
	"contory/internal/metrics"
	"contory/internal/vclock"
)

// Clock is the slice of the virtual clock the recorder schedules on. Both
// *vclock.Simulator (global-lane barriers; what fleets use) and a device's
// lane clock satisfy it.
type Clock interface {
	Now() time.Time
	After(d time.Duration, fn func()) *vclock.Timer
}

// Config configures a Recorder.
type Config struct {
	// Interval is the virtual time between samples (default 10s).
	Interval time.Duration `json:"interval"`
	// SLOs are the objectives evaluated against every window.
	SLOs []SLO `json:"slos,omitempty"`
}

// Recorder bounds and the burn-rate gate. A violating window fires an
// alert when the violating fraction of evaluated windows over the last
// burnLong windows (itself included) reaches burnRate.
const (
	// maxWindows bounds the retained window ring; older windows are
	// dropped and counted in Report.WindowsDropped.
	maxWindows = 512
	// maxAlerts bounds the alert log; later alerts are counted in
	// Report.AlertsDropped.
	maxAlerts = 256
	burnLong  = 6
	burnRate  = 0.5
)

// Validate rejects configurations a Recorder would silently normalize:
// harnesses call it so typos in SLO specs fail loudly.
func (c Config) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("timeline: interval %v < 0", c.Interval)
	}
	for _, s := range c.SLOs {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Rate is one counter's per-window activity: the raw delta and its rate
// over the window. Counters with no activity in the window are omitted.
type Rate struct {
	Name   string  `json:"name"`
	Delta  int64   `json:"delta"`
	PerSec float64 `json:"per_sec"`
}

// GaugeValue is one gauge's last value in a window. Gauges that are zero
// now and were zero at the previous sample are omitted.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// QuantilePoint is one histogram's per-window quantile summary, computed
// on the delta histogram (only the window's observations). Histograms with
// no observations in the window are omitted.
type QuantilePoint struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Derived is the window's pre-joined metric set the SLO engine evaluates:
// the cross-instrument ratios a single counter or gauge cannot express.
// Every ratio carries its denominator so "no data" (denominator zero,
// value reported as 0) is distinguishable from a true zero.
type Derived struct {
	QueriesSubmitted int64   `json:"queries_submitted"`
	QueriesPerSec    float64 `json:"queries_per_sec"`
	ItemsDelivered   int64   `json:"items_delivered"`
	ItemsPerSec      float64 `json:"items_per_sec"`
	FirstItemCount   int64   `json:"first_item_count"`
	P99FirstItemMs   float64 `json:"p99_first_item_ms"`
	CacheLookups     int64   `json:"cache_lookups"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	Joules           float64 `json:"joules"`
	JoulesPerItem    float64 `json:"joules_per_item"`
	ShedRate         float64 `json:"qos_shed_rate"`
	QoSPending       float64 `json:"qos_pending"`
	EventsDropped    uint64  `json:"events_dropped"`
}

// Window is one sampled delta-window of the flight recorder.
type Window struct {
	Index     int             `json:"index"`
	Start     time.Time       `json:"start"`
	End       time.Time       `json:"end"`
	Counters  []Rate          `json:"counters,omitempty"`
	Gauges    []GaugeValue    `json:"gauges,omitempty"`
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
	Derived   Derived         `json:"derived"`
}

// FaultSpan is one chaos fault's attribution window in absolute virtual
// time (clear time extended by the attribution grace), in the shape the
// recorder can consume without importing chaos.
type FaultSpan struct {
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	Target string    `json:"target,omitempty"`
	From   time.Time `json:"from"`
	Until  time.Time `json:"until"`
}

// label renders the span as an alert cause.
func (f FaultSpan) label() string {
	s := "fault " + f.ID + " " + f.Kind
	if f.Target != "" {
		s += " " + f.Target
	}
	return s
}

// Alert is one fired burn-rate alert. Window/WindowStart mark the firing
// window; WindowEnd extends over the episode while the objective keeps
// violating, and Causes accumulates every fault whose span overlaps a
// violating window of the episode (plus, post-run, the audit violations
// inside it).
type Alert struct {
	At          time.Time `json:"at"`
	SLO         string    `json:"slo"`
	Metric      string    `json:"metric"`
	Op          string    `json:"op"`
	Threshold   float64   `json:"threshold"`
	Value       float64   `json:"value"`
	BurnRate    float64   `json:"burn_rate"`
	Window      int       `json:"window"`
	WindowStart time.Time `json:"window_start"`
	WindowEnd   time.Time `json:"window_end"`
	Causes      []string  `json:"causes,omitempty"`
}

// SLOSummary is one objective's worst-window row of the report table.
type SLOSummary struct {
	SLO
	Evaluated   int       `json:"evaluated"`
	Violating   int       `json:"violating"`
	Alerts      int       `json:"alerts"`
	WorstWindow int       `json:"worst_window"`
	WorstAt     time.Time `json:"worst_at"`
	WorstValue  float64   `json:"worst_value"`
}

// Report is the recorder's exportable outcome: the retained windows, the
// alert log and the per-SLO worst-window table. Every field is a
// deterministic function of the run's seed.
type Report struct {
	Interval       time.Duration `json:"interval"`
	Start          time.Time     `json:"start"`
	End            time.Time     `json:"end"`
	WindowsTotal   int           `json:"windows_total"`
	WindowsDropped int           `json:"windows_dropped"`
	Windows        []Window      `json:"windows"`
	SLOs           []SLOSummary  `json:"slos,omitempty"`
	Alerts         []Alert       `json:"alerts,omitempty"`
	AlertsDropped  int           `json:"alerts_dropped,omitempty"`
}

// outcome is one window's SLO evaluation result.
type outcome struct {
	evaluated bool
	violated  bool
}

// sloState is one objective's burn-rate machinery.
type sloState struct {
	slo       SLO
	recent    []outcome // last burnLong outcomes, oldest first
	active    bool      // an alert episode is open
	alertIdx  int       // index into Recorder.alerts of the open episode
	evaluated int
	violating int
	alerts    int
	worstSet  bool
	worstWin  int
	worstAt   time.Time
	worstVal  float64
}

// Recorder is the flight recorder: build with New, arm with Install, read
// with Report. All sampling state is guarded by one mutex; ticks execute
// on the virtual clock (as global barriers in fleet runs), Report after
// the clock stops.
type Recorder struct {
	cfg   Config
	clk   Clock
	reg   *metrics.Registry
	mu    sync.Mutex
	start time.Time

	installed bool
	stopped   bool

	prevAt       time.Time
	prevCounters map[string]int64
	prevGauges   map[string]float64
	prevHists    map[string]metrics.HistogramPoint
	prevDropped  uint64

	windows  []Window // ring, oldest at winStart
	winStart int
	total    int
	dropped  int

	faults        []FaultSpan
	states        []*sloState
	alerts        []Alert
	alertsDropped int
}

// New builds a recorder over reg, sampling on clk. A non-positive Interval
// becomes 10s (call Config.Validate first to reject a negative one).
func New(clk Clock, reg *metrics.Registry, cfg Config) *Recorder {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	r := &Recorder{
		cfg:          cfg,
		clk:          clk,
		reg:          reg,
		prevCounters: make(map[string]int64),
		prevGauges:   make(map[string]float64),
		prevHists:    make(map[string]metrics.HistogramPoint),
	}
	for _, s := range cfg.SLOs {
		r.states = append(r.states, &sloState{slo: s.normalized()})
	}
	return r
}

// Install captures the baseline snapshot and schedules the sampling ticks.
// Call once, before the run starts; installing twice is a no-op.
func (r *Recorder) Install() {
	r.mu.Lock()
	if r.installed {
		r.mu.Unlock()
		return
	}
	r.installed = true
	r.start = r.clk.Now()
	r.prevAt = r.start
	r.baselineLocked()
	r.mu.Unlock()
	r.clk.After(r.cfg.Interval, r.tick)
}

// baselineLocked seeds the previous-sample maps from the current registry
// state so the first window only covers observations after Install.
func (r *Recorder) baselineLocked() {
	snap := r.reg.Snapshot().WithoutEvents()
	for _, c := range snap.Counters {
		r.prevCounters[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		r.prevGauges[g.Name] = g.Value
	}
	for _, h := range snap.Histograms {
		r.prevHists[h.Name] = h
	}
	r.prevDropped = snap.EventsDropped
}

// Stop freezes the recorder: pending ticks become no-ops.
func (r *Recorder) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// SetFaults hands the recorder the run's fault plan in absolute time, for
// alert cause attribution. Fleet engines call it once after installing the
// chaos injector; spans should already include the attribution grace.
func (r *Recorder) SetFaults(spans []FaultSpan) {
	r.mu.Lock()
	r.faults = append([]FaultSpan(nil), spans...)
	r.mu.Unlock()
}

// tick samples one window and reschedules itself.
func (r *Recorder) tick() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.sampleLocked()
	r.mu.Unlock()
	r.clk.After(r.cfg.Interval, r.tick)
}

// sampleLocked builds the next delta-window from the registry and runs the
// SLO engine over it.
func (r *Recorder) sampleLocked() {
	now := r.clk.Now()
	snap := r.reg.Snapshot().WithoutEvents()
	w := Window{Index: r.total, Start: r.prevAt, End: now}
	secs := now.Sub(r.prevAt).Seconds()

	// Counters: per-window deltas and rates. Iteration over the sorted
	// snapshot keeps output order and float addition order fixed.
	for _, c := range snap.Counters {
		d := c.Value - r.prevCounters[c.Name]
		r.prevCounters[c.Name] = c.Value
		if d == 0 {
			continue
		}
		rate := Rate{Name: c.Name, Delta: d}
		if secs > 0 {
			rate.PerSec = float64(d) / secs
		}
		w.Counters = append(w.Counters, rate)
	}

	// Gauges: last value. A gauge appears while it is nonzero or at the
	// sample where it returns to zero, so transitions stay visible.
	var joules float64
	for _, g := range snap.Gauges {
		prev, had := r.prevGauges[g.Name]
		r.prevGauges[g.Name] = g.Value
		if strings.HasPrefix(g.Name, "energy.joules.") {
			joules += g.Value - prev
		}
		if g.Value == 0 && (!had || prev == 0) {
			continue
		}
		w.Gauges = append(w.Gauges, GaugeValue{Name: g.Name, Value: g.Value})
	}

	// Histograms: per-window quantile points over the delta histograms.
	// First-item latency deltas are also merged bucket-wise (all first-item
	// histograms share one layout, so the merge is exact) for the derived
	// fleet-wide p99.
	var merged metrics.HistogramPoint
	for _, h := range snap.Histograms {
		d := h.Delta(r.prevHists[h.Name])
		r.prevHists[h.Name] = h
		if d.Count <= 0 {
			continue
		}
		w.Quantiles = append(w.Quantiles, QuantilePoint{
			Name:  h.Name,
			Count: d.Count,
			P50:   d.Quantile(0.50),
			P90:   d.Quantile(0.90),
			P99:   d.Quantile(0.99),
			Max:   d.Max,
		})
		if strings.HasPrefix(h.Name, "core.query.first_item_latency_ms.") {
			merged = mergeHistogram(merged, d)
		}
	}

	dv := &w.Derived
	cd := func(name string) int64 {
		for _, c := range w.Counters {
			if c.Name == name {
				return c.Delta
			}
		}
		return 0
	}
	dv.QueriesSubmitted = cd("core.query.submitted")
	dv.ItemsDelivered = cd("core.query.items_delivered")
	if secs > 0 {
		dv.QueriesPerSec = float64(dv.QueriesSubmitted) / secs
		dv.ItemsPerSec = float64(dv.ItemsDelivered) / secs
	}
	dv.FirstItemCount = merged.Count
	if merged.Count > 0 {
		dv.P99FirstItemMs = merged.Quantile(0.99)
	}
	hits, misses := cd("core.cache.hits"), cd("core.cache.misses")
	dv.CacheLookups = hits + misses
	if dv.CacheLookups > 0 {
		dv.CacheHitRatio = float64(hits) / float64(dv.CacheLookups)
	}
	dv.Joules = joules
	if dv.ItemsDelivered > 0 {
		dv.JoulesPerItem = joules / float64(dv.ItemsDelivered)
	}
	if dv.QueriesSubmitted > 0 {
		dv.ShedRate = float64(cd("qos.shed")) / float64(dv.QueriesSubmitted)
	}
	dv.QoSPending = r.prevGauges["qos.pending"]
	dv.EventsDropped = snap.EventsDropped - r.prevDropped
	r.prevDropped = snap.EventsDropped
	r.prevAt = now

	r.pushWindowLocked(w)
	for _, st := range r.states {
		r.evaluateLocked(st, w)
	}
}

// mergeHistogram merges two same-layout delta histograms bucket-wise; a
// zero-count accumulator adopts b wholesale.
func mergeHistogram(a, b metrics.HistogramPoint) metrics.HistogramPoint {
	if a.Count == 0 {
		b.Buckets = append([]metrics.Bucket(nil), b.Buckets...)
		return b
	}
	if len(a.Buckets) != len(b.Buckets) {
		return a // foreign layout; keep the exact part
	}
	a.Count += b.Count
	a.Sum += b.Sum
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	for i := range a.Buckets {
		a.Buckets[i].Count += b.Buckets[i].Count
	}
	return a
}

// pushWindowLocked appends w to the bounded ring.
func (r *Recorder) pushWindowLocked(w Window) {
	r.total++
	if len(r.windows) < maxWindows {
		r.windows = append(r.windows, w)
		return
	}
	r.windows[r.winStart] = w
	r.winStart = (r.winStart + 1) % len(r.windows)
	r.dropped++
}

// evaluateLocked runs one objective's burn-rate machinery over window w.
func (r *Recorder) evaluateLocked(st *sloState, w Window) {
	value, has := w.MetricValue(st.slo.Metric)
	violated := has && !st.slo.holds(value)
	st.recent = append(st.recent, outcome{evaluated: has, violated: violated})
	if len(st.recent) > burnLong {
		st.recent = st.recent[1:]
	}
	if !has {
		return
	}
	st.evaluated++
	if violated {
		st.violating++
	}
	if !st.worstSet || st.slo.worse(value, st.worstVal) {
		st.worstSet, st.worstWin, st.worstAt, st.worstVal = true, w.Index, w.End, value
	}

	if !violated {
		if st.active {
			st.active = false
			r.reg.Record(metrics.Event{
				At: w.End, Query: st.slo.Name, Kind: metrics.EventSLOClear,
				Mechanism: st.slo.Metric,
				Detail:    fmt.Sprintf("window %d: %s compliant at %g", w.Index, st.slo.Metric, value),
			})
		}
		return
	}
	if st.active {
		// The open episode extends: widen its window and union in the
		// faults overlapping this violating window.
		a := &r.alerts[st.alertIdx]
		a.WindowEnd = w.End
		a.Causes = mergeCauses(a.Causes, r.faultCausesLocked(w.Start, w.End))
		return
	}
	// Burn gate: the violating fraction of evaluated windows over the
	// lookback reaches burnRate.
	eval, bad := 0, 0
	for _, o := range st.recent {
		if o.evaluated {
			eval++
			if o.violated {
				bad++
			}
		}
	}
	burn := float64(bad) / float64(eval)
	if burn < burnRate {
		return
	}

	// Fire. The cause set starts with faults overlapping the burn lookback
	// (the evidence that tripped the gate), and grows while the episode
	// stays open.
	lookback := w.End.Add(-burnLong * r.cfg.Interval)
	alert := Alert{
		At: w.End, SLO: st.slo.Name, Metric: st.slo.Metric, Op: st.slo.Op,
		Threshold: st.slo.Threshold, Value: value, BurnRate: burn,
		Window: w.Index, WindowStart: w.Start, WindowEnd: w.End,
		Causes: r.faultCausesLocked(lookback, w.End),
	}
	st.alerts++
	st.active = true
	if len(r.alerts) >= maxAlerts {
		r.alertsDropped++
		st.active = false // no episode to extend once the log is full
	} else {
		st.alertIdx = len(r.alerts)
		r.alerts = append(r.alerts, alert)
	}
	r.reg.Record(metrics.Event{
		At: w.End, Query: st.slo.Name, Kind: metrics.EventSLOAlert,
		Mechanism: st.slo.Metric,
		Detail: fmt.Sprintf("window %d: %s = %g violates %s%g (burn %.2f); causes: %s",
			w.Index, st.slo.Metric, value, st.slo.Op, st.slo.Threshold, burn,
			strings.Join(alert.Causes, "; ")),
	})
}

// faultCausesLocked lists the labels of faults whose spans overlap
// [from, to], sorted.
func (r *Recorder) faultCausesLocked(from, to time.Time) []string {
	var causes []string
	for _, f := range r.faults {
		if f.From.After(to) || f.Until.Before(from) {
			continue
		}
		causes = append(causes, f.label())
	}
	sort.Strings(causes)
	return causes
}

// mergeCauses unions two sorted cause lists.
func mergeCauses(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, lists := range [][]string{a, b} {
		for _, c := range lists {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}

// AttributeAudit joins audit violations against the alert log: every
// violation stamped inside an alert's episode window becomes an
// "audit:<law> xN" cause. Call after the run (audit violations are
// appended from lane callbacks mid-run; their cross-lane order only
// settles once the clock stops).
func (r *Recorder) AttributeAudit(violations []audit.Violation) {
	if len(violations) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.alerts {
		a := &r.alerts[i]
		byLaw := make(map[string]int)
		for _, v := range violations {
			if v.At.After(a.WindowStart) && !v.At.After(a.WindowEnd) {
				byLaw[string(v.Law)]++
			}
		}
		if len(byLaw) == 0 {
			continue
		}
		laws := make([]string, 0, len(byLaw))
		for law := range byLaw {
			laws = append(laws, law)
		}
		sort.Strings(laws)
		causes := make([]string, 0, len(laws))
		for _, law := range laws {
			causes = append(causes, fmt.Sprintf("audit:%s x%d", law, byLaw[law]))
		}
		a.Causes = mergeCauses(a.Causes, causes)
	}
}

// Report snapshots the recorder's state: retained windows oldest first,
// the alert log and the per-SLO table. Safe to call mid-run (from a
// barrier) or after the clock stops.
func (r *Recorder) Report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Interval:       r.cfg.Interval,
		Start:          r.start,
		End:            r.prevAt,
		WindowsTotal:   r.total,
		WindowsDropped: r.dropped,
		Windows:        make([]Window, 0, len(r.windows)),
		AlertsDropped:  r.alertsDropped,
	}
	for i := 0; i < len(r.windows); i++ {
		rep.Windows = append(rep.Windows, r.windows[(r.winStart+i)%len(r.windows)])
	}
	if len(r.alerts) > 0 {
		rep.Alerts = append([]Alert(nil), r.alerts...)
	}
	for _, st := range r.states {
		rep.SLOs = append(rep.SLOs, SLOSummary{
			SLO:       st.slo,
			Evaluated: st.evaluated,
			Violating: st.violating,
			Alerts:    st.alerts,
			WorstWindow: func() int {
				if st.worstSet {
					return st.worstWin
				}
				return -1
			}(),
			WorstAt:    st.worstAt,
			WorstValue: st.worstVal,
		})
	}
	return rep
}
