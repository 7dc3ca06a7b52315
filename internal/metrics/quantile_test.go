package metrics

import (
	"math"
	"reflect"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 20, 50, 100})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	p := r.Snapshot().Histograms[0]

	cases := []struct {
		q        float64
		lo, hi   float64
		boundary bool
	}{
		{0.10, 1, 10, false},   // inside the first bucket
		{0.50, 20, 50, false},  // median falls in (20,50]
		{0.95, 50, 100, false}, // tail
		{1.00, 100, 100, true}, // max
		{0.00, 1, 10, false},   // clamped to min edge
	}
	for _, c := range cases {
		got := p.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("Quantile(%v) = %v, want in [%v,%v]", c.q, got, c.lo, c.hi)
		}
	}
	if got := p.Quantile(0.2); math.Abs(got-20) > 1 {
		t.Errorf("Quantile(0.2) = %v, want ~20 (exact at bucket boundary)", got)
	}
}

// TestHistogramQuantileEdgeCases pins the documented degenerate behaviour:
// an empty histogram has no quantiles (NaN), a NaN q yields NaN, and a
// finite q outside [0,1] clamps to the min/max edge.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramPoint
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("Quantile on empty = %v, want NaN", got)
	}
	if got := empty.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) on empty = %v, want NaN", got)
	}

	r := NewRegistry()
	h := r.Histogram("edge", []float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	p := r.Snapshot().Histograms[0]
	if got := p.Quantile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Quantile(NaN) = %v, want NaN", got)
	}
	if got := p.Quantile(-3); got != p.Min {
		t.Fatalf("Quantile(-3) = %v, want clamp to Min %v", got, p.Min)
	}
	if got := p.Quantile(7); got != p.Max {
		t.Fatalf("Quantile(7) = %v, want clamp to Max %v", got, p.Max)
	}
}

// Instruments reads everything Snapshot does except the retained events:
// the same instruments and ring totals, and a nil event list.
func TestInstrumentsWithoutEvents(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(1.5)
	r.Histogram("h", []float64{1, 10}).Observe(3)
	r.Record(Event{Query: "q-1", Kind: EventSubmitted})
	r.Record(Event{Query: "q-1", Kind: EventExpired})
	s := r.Instruments()
	if s.Events != nil {
		t.Fatalf("Instruments kept %d events", len(s.Events))
	}
	if s.EventsTotal != 2 || s.EventsCap != DefaultRingCapacity {
		t.Fatalf("EventsTotal = %d, EventsCap = %d, want 2 and %d", s.EventsTotal, s.EventsCap, DefaultRingCapacity)
	}
	full := r.Snapshot()
	if len(full.Events) != 2 {
		t.Fatalf("Snapshot kept %d events, want 2", len(full.Events))
	}
	full.Events = nil
	if !reflect.DeepEqual(s, full) {
		t.Fatalf("Instruments = %+v, want Snapshot without its events %+v", s, full)
	}
	if got := (*Registry)(nil).Instruments(); !reflect.DeepEqual(got, Snapshot{}) {
		t.Fatalf("nil registry: %+v", got)
	}
}

// Fixed-point accumulation makes concurrent Adds commute exactly: any
// ordering of the same multiset of deltas yields the same value. Simulate by
// summing in two very different orders.
func TestGaugeAddOrderIndependent(t *testing.T) {
	deltas := []float64{0.1, 0.2, 0.3, 1e9, -1e9, 0.000001, 123.456789, -0.25}
	var a, b Gauge
	for _, d := range deltas {
		a.Add(d)
	}
	for i := len(deltas) - 1; i >= 0; i-- {
		b.Add(deltas[i])
	}
	if a.Value() != b.Value() {
		t.Fatalf("order-dependent gauge: %v vs %v", a.Value(), b.Value())
	}
}

func TestHistogramSumOrderIndependent(t *testing.T) {
	vals := []float64{0.5, 1e9, 1.01, 7, 0.000001, 3.3333333}
	ha, hb := newHistogram(DefaultLatencyBucketsMs), newHistogram(DefaultLatencyBucketsMs)
	for _, v := range vals {
		ha.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		hb.Observe(vals[i])
	}
	if ha.Sum() != hb.Sum() {
		t.Fatalf("order-dependent sum: %v vs %v", ha.Sum(), hb.Sum())
	}
}
