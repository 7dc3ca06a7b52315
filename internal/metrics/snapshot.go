package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Bucket is one histogram bucket with a cumulative count of observations at
// or below its upper bound. Le is the rendered bound ("+Inf" for the
// overflow bucket) so the snapshot stays JSON-encodable.
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of a registry: instruments sorted by
// name, the retained lifecycle events oldest first, and ring accounting.
// Under the virtual clock a snapshot is fully deterministic: two
// identically-seeded runs render byte-identical text and JSON.
type Snapshot struct {
	Counters    []CounterPoint   `json:"counters"`
	Gauges      []GaugePoint     `json:"gauges"`
	Histograms  []HistogramPoint `json:"histograms"`
	Events      []Event          `json:"events"`
	EventsTotal uint64           `json:"events_total"`
	// EventsDropped counts ring evictions. The count (unlike the retained
	// list) is a pure function of total volume and capacity, so it stays in
	// worker-count-deterministic snapshots.
	EventsDropped uint64 `json:"events_dropped"`
	EventsCap     int    `json:"events_capacity"`
}

// Snapshot captures the registry's current state. Nil-safe: a nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := r.Instruments()
	s.Events = r.Events().Events()
	return s
}

// Instruments captures the registry's counters, gauges and histograms and
// the ring's totals (EventsTotal, EventsDropped, EventsCap), leaving Events
// nil: it neither copies nor labels the retained events. The ring evicts in
// execution order, which across parallel lanes is schedule-dependent, so
// fleet runs read their metrics this way to keep byte-identical output at
// any worker count; the flight recorder samples this way every window.
// Nil-safe: a nil registry yields an empty snapshot.
func (r *Registry) Instruments() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, snapHistogram(name, h))
	}
	r.mu.Unlock()

	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })

	s.EventsTotal = r.ring.Total()
	s.EventsDropped = r.ring.Dropped()
	s.EventsCap = r.ring.Capacity()
	return s
}

func snapHistogram(name string, h *Histogram) HistogramPoint {
	lo, hi := h.minMax()
	p := HistogramPoint{
		Name:  name,
		Count: h.count.Load(),
		Sum:   fromFixed(h.sum.Load()),
		Min:   lo,
		Max:   hi,
	}
	p.Buckets = make([]Bucket, len(h.labels))
	cum := int64(0)
	for i, le := range h.labels {
		cum += h.counts[i].Load()
		p.Buckets[i] = Bucket{Le: le, Count: cum}
	}
	return p
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket containing the target rank, using Min and Max as the edges of the
// first occupied and +Inf buckets. The estimate is exact at bucket
// boundaries and deterministic, which is what fleet summaries need; it is
// not an exact order statistic.
//
// Edge cases are defined: an empty histogram (no observations or no
// buckets) has no quantiles, so the result is NaN, as it is for a NaN q;
// a finite q outside [0,1] is clamped to the nearest endpoint, making
// Quantile(q<=0) = Min and Quantile(q>=1) = Max.
func (p HistogramPoint) Quantile(q float64) float64 {
	if p.Count == 0 || len(p.Buckets) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(p.Count)
	prevCum := int64(0)
	lower := p.Min
	for _, b := range p.Buckets {
		if b.Count == prevCum {
			continue // empty bucket: lower edge unchanged
		}
		upper := p.Max
		if b.Le != "+Inf" {
			if v, err := strconv.ParseFloat(b.Le, 64); err == nil && v < p.Max {
				upper = v
			}
		}
		if float64(b.Count) >= rank {
			in := b.Count - prevCum
			frac := (rank - float64(prevCum)) / float64(in)
			v := lower + (upper-lower)*frac
			if v < p.Min {
				v = p.Min
			}
			if v > p.Max {
				v = p.Max
			}
			return v
		}
		prevCum = b.Count
		if upper > lower {
			lower = upper
		}
	}
	return p.Max
}

// formatFloat renders floats with the shortest exact representation, so the
// exposition is byte-stable across runs.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText writes the snapshot in the text exposition format:
//
//	counter <name> <value>
//	gauge <name> <value>
//	histogram <name> count=<n> sum=<s> min=<m> max=<M>
//	histogram <name> le=<bound> <cumulative-count>
//	events total=<n> retained=<n> dropped=<n> capacity=<n>
//	event <RFC3339> <kind> query=<id> [mech=<m>] [detail=<d>]
//
// Lines are sorted by instrument name; events are chronological.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %s\n", g.Name, formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s min=%s max=%s\n",
			h.Name, h.Count, formatFloat(h.Sum), formatFloat(h.Min), formatFloat(h.Max))
		for _, bk := range h.Buckets {
			fmt.Fprintf(&b, "histogram %s le=%s %d\n", h.Name, bk.Le, bk.Count)
		}
	}
	fmt.Fprintf(&b, "events total=%d retained=%d dropped=%d capacity=%d\n",
		s.EventsTotal, len(s.Events), s.EventsDropped, s.EventsCap)
	for _, ev := range s.Events {
		fmt.Fprintf(&b, "event %s %s query=%s", ev.At.UTC().Format("2006-01-02T15:04:05.000000000Z"), ev.Kind, ev.Query)
		if ev.Mechanism != "" {
			fmt.Fprintf(&b, " mech=%s", ev.Mechanism)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " detail=%q", ev.Detail)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the text exposition format.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

// MarshalJSONIndent renders the snapshot as deterministic indented JSON
// (the BENCH_*.json format future PRs diff perf trajectories with).
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
