package fleet

import (
	"encoding/json"
	"strings"
	"time"

	"contory/internal/audit"
	"contory/internal/chaos"
	"contory/internal/energy"
	"contory/internal/metrics"
	"contory/internal/timeline"
	"contory/internal/tracing"
	"contory/internal/vclock"
)

// LatencyStats summarizes one first-item-latency histogram (milliseconds).
type LatencyStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// MediumStats counts frames on one radio medium.
type MediumStats struct {
	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
}

// ClassEnergy aggregates battery drain over one device class.
type ClassEnergy struct {
	Phones      int     `json:"phones"`
	TotalJoules float64 `json:"total_joules"`
	MeanJoules  float64 `json:"mean_joules"`
}

// ChaosReport accounts for a chaos run: how many faults were injected and
// how many of the middleware's strategy switches each fault kind explains.
// Unattributed > 0 means some failover had no injected cause — either a
// profile/grace mismatch or a genuine middleware bug.
type ChaosReport struct {
	Profile      string         `json:"profile"`
	Faults       int            `json:"faults"`
	FaultsByKind map[string]int `json:"faults_by_kind"`
	Switches     int            `json:"switches"`
	Attributed   int            `json:"attributed"`
	Unattributed int            `json:"unattributed"`
}

// CacheMuxReport summarizes the shared provisioning plane: how much query
// traffic the answer cache absorbed and how many queries shared one live
// provider stream instead of owning their own.
type CacheMuxReport struct {
	// Hits / Misses count answer-cache lookups on submitted queries.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HitRatio is Hits / (Hits + Misses).
	HitRatio float64 `json:"hit_ratio"`
	// Refreshes counts periodic re-deliveries served from the cache after
	// the first answer; Promotions counts cache-served queries handed to a
	// live mechanism when their stored context went stale.
	Refreshes  int64 `json:"refreshes"`
	Promotions int64 `json:"promotions"`
	// MuxAttached / MuxDetached count queries joining and leaving shared
	// provider streams; SharedStreams counts streams that became shared.
	MuxAttached   int64 `json:"mux_attached"`
	MuxDetached   int64 `json:"mux_detached"`
	SharedStreams int64 `json:"shared_streams"`
}

// QoSReport summarizes the QoS provisioning plane: how the admission
// controller disposed of submitted queries and the p99 first-item latency
// over every mechanism's histogram merged bucket-wise (all first-item
// histograms share one bucket layout, so the merge is exact).
type QoSReport struct {
	// Admitted queries went straight to live provisioning; Deferred parked
	// in the pending queue and Released of them were later handed a slot.
	Admitted int64 `json:"admitted"`
	Deferred int64 `json:"deferred"`
	Released int64 `json:"released"`
	// Degraded queries were served stale-but-TTL-fresh cache answers;
	// Rejected were turned away at admission; Shed were cancelled by
	// overload control after going live.
	Degraded int64 `json:"degraded"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// P99FirstItemMs is the 99th-percentile first-item latency across all
	// provisioning mechanisms (cache answers included).
	P99FirstItemMs float64 `json:"p99_first_item_ms"`
}

// Summary is the per-run fleet report. Every field is a deterministic
// function of the Spec: same seed, same summary bytes, at any worker count
// or GOMAXPROCS.
type Summary struct {
	Name           string  `json:"name"`
	Phones         int     `json:"phones"`
	Seed           int64   `json:"seed"`
	Lanes          int     `json:"lanes"`
	VirtualSeconds float64 `json:"virtual_seconds"`

	QueriesSubmitted int64   `json:"queries_submitted"`
	QueriesPerSec    float64 `json:"queries_per_virtual_sec"`
	ItemsDelivered   int64   `json:"items_delivered"`
	Failovers        int64   `json:"failovers"`
	Expired          int64   `json:"expired"`
	Cancelled        int64   `json:"cancelled"`
	Rejected         int64   `json:"rejected"`

	// Latency is keyed by provisioning mechanism (local, adhoc, infra).
	Latency map[string]LatencyStats `json:"latency"`
	// Frames is keyed by radio medium (bt, wifi, umts).
	Frames map[string]MediumStats `json:"frames"`
	// Energy is keyed by device class (dual, wifi-only, umts-only).
	Energy map[string]ClassEnergy `json:"energy"`

	// Execution shape (schedule-derived, worker-count independent).
	Events   uint64 `json:"events"`
	Batches  uint64 `json:"batches"`
	Groups   uint64 `json:"groups"`
	Barriers uint64 `json:"barriers"`

	// Chaos reports fault injection and switch attribution (nil without a
	// chaos profile).
	Chaos *ChaosReport `json:"chaos,omitempty"`

	// Trace is the latency-attribution report over the retained span trees
	// (nil unless the spec enables tracing).
	Trace *tracing.AttributionReport `json:"trace,omitempty"`

	// CacheMux reports the shared provisioning plane (nil when the run
	// neither enabled the answer cache nor multiplexed any stream).
	CacheMux *CacheMuxReport `json:"cache_mux,omitempty"`

	// QoS reports the admission/scheduling/shedding plane (nil unless the
	// spec enables QoS or a factory recorded QoS activity).
	QoS *QoSReport `json:"qos,omitempty"`

	// Audit is the runtime invariant checker's report (nil unless the spec
	// enables auditing). A strict harness fails the run when
	// Audit.Violations is non-empty.
	Audit *audit.Report `json:"audit,omitempty"`

	// Timeline is the flight recorder's report — windows, SLO worst-window
	// table and the burn-rate alert log (nil unless the spec enables the
	// timeline).
	Timeline *timeline.Report `json:"timeline,omitempty"`

	// Snapshot is the full metrics state (lifecycle event ring excluded:
	// its eviction order is execution-order sensitive by design).
	Snapshot metrics.Snapshot `json:"snapshot"`
}

// JSON renders the summary with stable indentation.
func (s Summary) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// summarize builds the Summary from the world's metrics after a run.
func (e *Engine) summarize(start time.Time, drawn []energy.Interval, bs vclock.BatchStats) Summary {
	snap := e.w.Metrics().Instruments()
	end := e.w.Now()
	virtSec := end.Sub(start).Seconds()

	s := Summary{
		Name:           e.spec.Name,
		Phones:         e.spec.Phones,
		Seed:           e.spec.Seed,
		Lanes:          e.spec.Lanes,
		VirtualSeconds: virtSec,
		Latency:        make(map[string]LatencyStats),
		Frames:         make(map[string]MediumStats),
		Energy:         make(map[string]ClassEnergy),
		Events:         e.w.EventsExecuted(),
		Batches:        bs.Batches,
		Groups:         bs.Groups,
		Barriers:       bs.Barriers,
		Snapshot:       snap,
	}

	counters := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	s.QueriesSubmitted = counters["core.query.submitted"]
	s.ItemsDelivered = counters["core.query.items_delivered"]
	s.Failovers = counters["core.query.switched"]
	s.Expired = counters["core.query.expired"]
	s.Cancelled = counters["core.query.cancelled"]
	s.Rejected = counters["core.query.rejected"]
	if virtSec > 0 {
		s.QueriesPerSec = float64(s.QueriesSubmitted) / virtSec
	}

	for _, h := range snap.Histograms {
		mech, ok := strings.CutPrefix(h.Name, "core.query.first_item_latency_ms.")
		if !ok || h.Count == 0 {
			continue
		}
		s.Latency[mech] = LatencyStats{
			Count: h.Count,
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			Max:   h.Max,
		}
	}

	for name, v := range counters {
		if medium, ok := strings.CutPrefix(name, "simnet.frames.sent."); ok {
			ms := s.Frames[medium]
			ms.Sent = v
			s.Frames[medium] = ms
		}
		if medium, ok := strings.CutPrefix(name, "simnet.frames.delivered."); ok {
			ms := s.Frames[medium]
			ms.Delivered = v
			s.Frames[medium] = ms
		}
		if medium, ok := strings.CutPrefix(name, "simnet.frames.dropped."); ok {
			ms := s.Frames[medium]
			ms.Dropped = v
			s.Frames[medium] = ms
		}
	}

	// Per-class energy, summed in phone-index order so float addition order
	// is fixed. Closing the run's intervals takes them off the timelines.
	for i := range e.phones {
		class := e.classes[i]
		ce := s.Energy[class]
		ce.Phones++
		ce.TotalJoules += float64(drawn[i].Close())
		s.Energy[class] = ce
	}
	for class, ce := range s.Energy {
		if ce.Phones > 0 {
			ce.MeanJoules = ce.TotalJoules / float64(ce.Phones)
		}
		s.Energy[class] = ce
	}

	if e.injector != nil {
		// Switches collected in phone-index order; the phone ID prefix keeps
		// query IDs unique fleet-wide.
		var sws []chaos.Switch
		for _, p := range e.phones {
			for _, sw := range p.Factory.Switches() {
				sws = append(sws, chaos.Switch{
					At: sw.At, Query: p.ID() + "/" + sw.QueryID, Reason: sw.Reason,
				})
			}
		}
		faults := e.injector.Faults()
		att := chaos.Attribute(start, faults, sws)
		byKind := make(map[string]int)
		for _, f := range faults {
			byKind[string(f.Kind)]++
		}
		s.Chaos = &ChaosReport{
			Profile:      e.spec.Chaos.Profile,
			Faults:       len(faults),
			FaultsByKind: byKind,
			Switches:     att.Switches,
			Attributed:   att.Attributed,
			Unattributed: len(att.Unattributed),
		}
	}

	cm := CacheMuxReport{
		Hits:       counters["core.cache.hits"],
		Misses:     counters["core.cache.misses"],
		Refreshes:  counters["core.cache.refreshes"],
		Promotions: counters["core.cache.promotions"],
	}
	for name, v := range counters {
		if _, ok := strings.CutPrefix(name, "core.mux.attached."); ok {
			cm.MuxAttached += v
		}
		if _, ok := strings.CutPrefix(name, "core.mux.detached."); ok {
			cm.MuxDetached += v
		}
		if _, ok := strings.CutPrefix(name, "core.mux.shared_streams."); ok {
			cm.SharedStreams += v
		}
	}
	if total := cm.Hits + cm.Misses; total > 0 {
		cm.HitRatio = float64(cm.Hits) / float64(total)
	}
	if e.spec.Cache.Enabled || cm != (CacheMuxReport{}) {
		s.CacheMux = &cm
	}

	qr := QoSReport{
		Admitted:       counters["qos.admitted"],
		Deferred:       counters["qos.deferred"],
		Released:       counters["qos.released"],
		Degraded:       counters["qos.degraded"],
		Rejected:       counters["qos.rejected"],
		Shed:           counters["qos.shed"],
		P99FirstItemMs: mergedFirstItemP99(snap),
	}
	if e.spec.QoS.Enabled || qr.Admitted+qr.Deferred+qr.Released+qr.Degraded+qr.Rejected+qr.Shed != 0 {
		s.QoS = &qr
	}

	if e.auditor != nil {
		s.Audit = e.auditor.Report()
	}

	if rec := e.w.Timeline(); rec != nil {
		rec.Stop()
		if s.Audit != nil {
			// Join audit violations into alert causes post-run: cross-lane
			// violation order only settles once the clock stops.
			rec.AttributeAudit(s.Audit.Violations)
		}
		rep := rec.Report()
		s.Timeline = &rep
	}

	if tr := e.w.Tracer(); tr != nil {
		rep := tracing.BuildAttribution(tr.Store().Traces(), tr.Stats(), traceTopN)
		s.Trace = &rep
	}
	return s
}

// traceTopN is how many slowest traces the summary's attribution lists.
const traceTopN = 5

// mergedFirstItemP99 merges every per-mechanism first-item-latency histogram
// bucket-wise and returns the 99th percentile of the union. All first-item
// histograms are built with the same bucket bounds, so summing per-bucket
// counts is an exact merge, not an approximation.
func mergedFirstItemP99(snap metrics.Snapshot) float64 {
	var merged metrics.HistogramPoint
	for _, h := range snap.Histograms {
		if !strings.HasPrefix(h.Name, "core.query.first_item_latency_ms.") || h.Count == 0 {
			continue
		}
		if merged.Count == 0 {
			merged = h
			merged.Buckets = append([]metrics.Bucket(nil), h.Buckets...)
			continue
		}
		if len(h.Buckets) != len(merged.Buckets) {
			continue // foreign layout; skip rather than merge inexactly
		}
		merged.Count += h.Count
		merged.Sum += h.Sum
		if h.Min < merged.Min {
			merged.Min = h.Min
		}
		if h.Max > merged.Max {
			merged.Max = h.Max
		}
		for i := range merged.Buckets {
			merged.Buckets[i].Count += h.Buckets[i].Count
		}
	}
	if merged.Count == 0 {
		return 0
	}
	return merged.Quantile(0.99)
}
