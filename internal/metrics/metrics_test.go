package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Ring
	var reg *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	r.Record(Event{})
	reg.Record(Event{})
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x", nil).Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || r.Len() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if s := reg.Snapshot(); len(s.Counters) != 0 || s.String() == "" {
		t.Fatalf("nil registry snapshot: %+v", s)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{10, 1, 5, 5}) // unsorted + duplicate on purpose
	for _, v := range []float64{0.5, 1, 1.01, 5, 7, 10, 11, 1e9} {
		h.Observe(v)
	}
	// Bounds normalise to [1 5 10]; values ≤ bound (inclusive) land in the
	// first matching bucket.
	wantRaw := []int64{2, 2, 2, 2} // (≤1)=2, (1,5]=2, (5,10]=2, +Inf=2
	for i, want := range wantRaw {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("raw bucket %d = %d, want %d", i, got, want)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0.5+1+1.01+5+7+10+11+1e9 {
		t.Errorf("sum = %v", h.Sum())
	}

	p := snapHistogram("h", h)
	wantCum := []struct {
		le    string
		count int64
	}{{"1", 2}, {"5", 4}, {"10", 6}, {"+Inf", 8}}
	if len(p.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %+v", p.Buckets)
	}
	for i, w := range wantCum {
		if p.Buckets[i].Le != w.le || p.Buckets[i].Count != w.count {
			t.Errorf("bucket %d = %+v, want %+v", i, p.Buckets[i], w)
		}
	}
	if p.Min != 0.5 || p.Max != 1e9 {
		t.Errorf("min/max = %v/%v", p.Min, p.Max)
	}
}

// TestHistogramLabelsRenderedOnce: bucket labels are rendered when the
// histogram is made, from its sorted, deduplicated bounds; the text and
// JSON expositions are the bytes that rendering them on every read gave.
func TestHistogramLabelsRenderedOnce(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat.ms", []float64{1e21, 5, 0.1, 2.5, 5, 1e-7, 1, 0.1})
	for _, v := range []float64{0, 0.1, 0.3, 3, 5, 7e5, 2e9} {
		h.Observe(v)
	}
	reg.Histogram("empty", nil)
	s := reg.Instruments()
	const wantText = `histogram empty count=0 sum=0 min=0 max=0
histogram empty le=+Inf 0
histogram lat.ms count=7 sum=2.0007000084e+09 min=0 max=2e+09
histogram lat.ms le=1e-07 1
histogram lat.ms le=0.1 2
histogram lat.ms le=1 3
histogram lat.ms le=2.5 3
histogram lat.ms le=5 5
histogram lat.ms le=1e+21 7
histogram lat.ms le=+Inf 7
events total=0 retained=0 dropped=0 capacity=1024
`
	if got := s.String(); got != wantText {
		t.Errorf("text exposition:\n%s\nwant:\n%s", got, wantText)
	}
	const wantJSON = `{"counters":null,"gauges":null,"histograms":[{"name":"empty","count":0,"sum":0,"min":0,"max":0,"buckets":[{"le":"+Inf","count":0}]},{"name":"lat.ms","count":7,"sum":2000700008.4,"min":0,"max":2000000000,"buckets":[{"le":"1e-07","count":1},{"le":"0.1","count":2},{"le":"1","count":3},{"le":"2.5","count":3},{"le":"5","count":5},{"le":"1e+21","count":7},{"le":"+Inf","count":7}]}],"events":null,"events_total":0,"events_dropped":0,"events_capacity":1024}`
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantJSON {
		t.Errorf("JSON exposition:\n%s\nwant:\n%s", got, wantJSON)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("counter identity")
	}
	if reg.Gauge("b") != reg.Gauge("b") {
		t.Error("gauge identity")
	}
	if reg.Histogram("c", []float64{1}) != reg.Histogram("c", []float64{2, 3}) {
		t.Error("histogram identity (bounds fixed at creation)")
	}
}

func TestRingBoundedEviction(t *testing.T) {
	r := NewRing(3)
	base := time.Date(2005, 6, 10, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		r.Record(Event{At: base.Add(time.Duration(i) * time.Second), Query: string(rune('a' + i)), Kind: EventSubmitted})
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
	if r.Len() != 3 || r.Capacity() != 3 {
		t.Errorf("len/cap = %d/%d, want 3/3", r.Len(), r.Capacity())
	}
	evs := r.Events()
	got := ""
	for _, ev := range evs {
		got += ev.Query
	}
	if got != "cde" {
		t.Errorf("retained = %q, want oldest-two evicted (cde)", got)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Record(Event{Query: "x"})
	r.Record(Event{Query: "y"})
	if r.Capacity() != 1 || r.Len() != 1 || r.Events()[0].Query != "y" {
		t.Errorf("ring(0): cap=%d len=%d evs=%v", r.Capacity(), r.Len(), r.Events())
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() Snapshot {
		reg := NewRegistry()
		reg.Counter("z.count").Add(3)
		reg.Counter("a.count").Inc()
		reg.Gauge("m.gauge").Set(1.25)
		h := reg.Histogram("lat.ms", []float64{1, 10})
		h.Observe(0.5)
		h.Observe(50)
		reg.Record(Event{
			At:    time.Date(2005, 6, 10, 12, 0, 1, 0, time.UTC),
			Query: "q-1", Kind: EventSubmitted, Mechanism: "intSensor",
		})
		return reg.Snapshot()
	}
	s1, s2 := build(), build()
	if s1.String() != s2.String() {
		t.Fatal("snapshots of identical registries differ")
	}
	j1, err := s1.MarshalJSONIndent()
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	j2, _ := s2.MarshalJSONIndent()
	if string(j1) != string(j2) {
		t.Fatal("json snapshots differ")
	}

	text := s1.String()
	if !strings.Contains(text, "counter a.count 1") ||
		!strings.Contains(text, "counter z.count 3") ||
		!strings.Contains(text, "gauge m.gauge 1.25") ||
		!strings.Contains(text, "histogram lat.ms count=2 sum=50.5") ||
		!strings.Contains(text, "histogram lat.ms le=+Inf 2") ||
		!strings.Contains(text, "event 2005-06-10T12:00:01.000000000Z submitted query=q-1 mech=intSensor") {
		t.Errorf("unexpected exposition:\n%s", text)
	}
	// Sorted: a.count before z.count.
	if strings.Index(text, "a.count") > strings.Index(text, "z.count") {
		t.Error("counters not sorted by name")
	}
}

func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", DefaultLatencyBucketsMs).Observe(float64(j))
				reg.Record(Event{Query: "q", Kind: EventDelivered})
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := reg.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	if got := reg.Events().Total(); got != 8000 {
		t.Errorf("ring total = %d, want 8000", got)
	}
}

// foundTerms are values whose saturated fixed-point sum once wrapped: the
// histogram read sum=8.399998 and the gauge 0.999998.
var foundTerms = []float64{0, 0.1, 0.3, 3, 5, 7e20, 2e21}

// permute calls f with every ordering of xs.
func permute(xs []float64, k int, f func([]float64)) {
	if k == len(xs) {
		f(xs)
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, f)
		xs[k], xs[i] = xs[i], xs[k]
	}
}

// TestFixedSumsNeverWrap: each term saturates at the int64 microunit
// range, and the sum of saturated terms does not wrap: every ordering of
// the terms gives one histogram sum and one gauge value, near 2⁶⁴
// microunits, not the wrapped 8.399998.
func TestFixedSumsNeverWrap(t *testing.T) {
	xs := append([]float64(nil), foundTerms...)
	var hsum, gval float64
	first := true
	permute(xs, 0, func(order []float64) {
		h := newHistogram(DefaultLatencyBucketsMs)
		var g Gauge
		for _, v := range order {
			h.Observe(v)
			g.Add(v)
		}
		if first {
			hsum, gval, first = h.Sum(), g.Value(), false
		}
		if h.Sum() != hsum || g.Value() != gval {
			t.Fatalf("order %v: sum %v, gauge %v; first order %v, %v", order, h.Sum(), g.Value(), hsum, gval)
		}
	})
	// Two saturated terms of 2⁶³−1 microunits plus 8.4 units.
	if want := 18446744073717.951; math.Abs(hsum-want) > 0.01 || hsum != gval {
		t.Fatalf("sum %v, gauge %v, want %v", hsum, gval, want)
	}
	var g Gauge
	g.Add(7e20)
	g.Add(2e21)
	g.Add(1)
	if got := g.Value(); got < 1e13 {
		t.Fatalf("gauge after Add(7e20), Add(2e21), Add(1) = %v, wrapped", got)
	}
	// Saturated terms sum exactly and back into range: 2(2⁶³−1) − 2·2⁶³
	// + 10⁶ microunits.
	g.Add(-7e20)
	g.Add(-2e21)
	if got := g.Value(); got != 0.999998 {
		t.Fatalf("gauge back in range = %v, want 0.999998", got)
	}
}

// TestFixedSumsConcurrentAddsMatchSerial: adds of mixed signs and sizes,
// saturated ones included, from eight goroutines give the serial sum.
func TestFixedSumsConcurrentAddsMatchSerial(t *testing.T) {
	terms := func(w int) []float64 {
		out := make([]float64, 0, 200)
		for j := 0; j < 200; j++ {
			v := float64((w+1)*(j+1)) * 1e9
			if j%3 == 0 {
				v = -v
			}
			if j%50 == 7 {
				v = 3e21 * float64(1-2*(w%2))
			}
			out = append(out, v+0.25)
		}
		return out
	}
	var serialG Gauge
	serialH := newHistogram(nil)
	for w := 0; w < 8; w++ {
		for _, v := range terms(w) {
			serialG.Add(v)
			serialH.Observe(v)
		}
	}
	var g Gauge
	h := newHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range terms(w) {
				g.Add(v)
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	if g.Value() != serialG.Value() || h.Sum() != serialH.Sum() {
		t.Fatalf("concurrent gauge %v, sum %v; serial %v, %v", g.Value(), h.Sum(), serialG.Value(), serialH.Sum())
	}
}

// TestFixedSumsInRangeExposition: sums that fit in int64 microunits read,
// and render in the text and JSON exposition, as float64(sum)/1e6 always
// did, negative ones and ones near the int64 range included.
func TestFixedSumsInRangeExposition(t *testing.T) {
	reg := NewRegistry()
	cases := []struct {
		name  string
		terms []float64
	}{
		{"neg", []float64{1.5, -0.25, -7.125}},
		{"big", []float64{9.2e12, 1.5e3, -0.000001}},
		{"low", []float64{-9.2e12, -1.5e3, 0.000001}},
		{"back", []float64{-4e12, 4e12, 0.1, 0.2}},
	}
	for _, c := range cases {
		var fp int64
		h := reg.Histogram("h."+c.name, nil)
		for _, v := range c.terms {
			reg.Gauge("g." + c.name).Add(v)
			h.Observe(v)
			fp += toFixed(v)
		}
		want := float64(fp) / fixedScale
		if got := reg.Gauge("g." + c.name).Value(); got != want {
			t.Errorf("gauge %s = %v, want %v", c.name, got, want)
		}
		text := reg.Snapshot().String()
		if line := "gauge g." + c.name + " " + formatFloat(want); !strings.Contains(text, line) {
			t.Errorf("text lacks %q:\n%s", line, text)
		}
		if line := "histogram h." + c.name + " count=" + fmt.Sprint(len(c.terms)) + " sum=" + formatFloat(want); !strings.Contains(text, line) {
			t.Errorf("text lacks %q:\n%s", line, text)
		}
		j, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		wj, _ := json.Marshal(want)
		if !strings.Contains(string(j), `"name":"g.`+c.name+`","value":`+string(wj)) ||
			!strings.Contains(string(j), `"sum":`+string(wj)) {
			t.Errorf("JSON lacks %s = %s: %s", c.name, wj, j)
		}
	}
}
