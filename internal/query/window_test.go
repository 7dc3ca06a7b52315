package query

import (
	"math"
	"testing"
	"testing/quick"
)

// windowOracle is the former append-and-reslice EventWindow, kept as the
// reference the ring is checked against: Observe appends and reslices to
// the last size values, and aggregates scan that slice oldest to newest.
type windowOracle struct {
	size   int
	values []float64
}

func (w *windowOracle) Observe(v float64) {
	w.values = append(w.values, v)
	if len(w.values) > w.size {
		w.values = w.values[len(w.values)-w.size:]
	}
}

func (w *windowOracle) aggregate(a Agg) (float64, bool) {
	if a == AggCount {
		return float64(len(w.values)), true
	}
	if len(w.values) == 0 {
		return 0, false
	}
	switch a {
	case AggAvg:
		var sum float64
		for _, v := range w.values {
			sum += v
		}
		return sum / float64(len(w.values)), true
	case AggMin:
		m := w.values[0]
		for _, v := range w.values[1:] {
			if v < m {
				m = v
			}
		}
		return m, true
	case AggMax:
		m := w.values[0]
		for _, v := range w.values[1:] {
			if v > m {
				m = v
			}
		}
		return m, true
	case AggSum:
		var sum float64
		for _, v := range w.values {
			sum += v
		}
		return sum, true
	default:
		return w.values[len(w.values)-1], true
	}
}

var allAggs = []Agg{AggNone, AggAvg, AggMin, AggMax, AggSum, AggCount}

// windowValue maps a generated value to an observation: mostly ordinary
// floats of mixed magnitude, so that the summation order shows in the
// low bits, and sometimes NaN, ±Inf or -0, whose comparisons make MIN and
// MAX depend on the scan order.
func windowValue(raw int64, pick uint8) float64 {
	switch pick % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	}
	return float64(raw) / float64(int64(pick)*int64(pick)+1) * 1e-3
}

// Property: over random window sizes and observation sequences, after
// every observation the ring holds the former window's values in the same
// order, and every aggregate is bit-identical to the former one.
func TestEventWindowMatchesOracle(t *testing.T) {
	prop := func(sizeRaw uint8, raws []int64, picks []uint8) bool {
		size := int(sizeRaw%20) + 1
		w, o := NewEventWindow(size), &windowOracle{size: size}
		for i, raw := range raws {
			var pick uint8
			if i < len(picks) {
				pick = picks[i]
			}
			v := windowValue(raw, pick)
			w.Observe(v)
			o.Observe(v)
			if w.Len() != len(o.values) {
				t.Logf("size %d, %d observations: Len %d, oracle %d", size, i+1, w.Len(), len(o.values))
				return false
			}
			if got := w.Values(); !sameBits(got, o.values) {
				t.Logf("size %d, %d observations: Values %v, oracle %v", size, i+1, got, o.values)
				return false
			}
			for _, a := range allAggs {
				got, gotOK := w.aggregate(a)
				want, wantOK := o.aggregate(a)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Logf("size %d, %d observations, %v: %v,%v, oracle %v,%v", size, i+1, a, got, gotOK, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var benchAgg float64

// TestEventWindowObserveAllocs: the first Observe allocates the ring;
// every later one allocates nothing, while the window fills and after it
// wraps. Each measured run observes four windows' worth, so an occasional
// allocation cannot average away.
func TestEventWindowObserveAllocs(t *testing.T) {
	w := NewEventWindow(16)
	w.Observe(0)
	v := 0.0
	if got := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			v++
			w.Observe(v)
			benchAgg, _ = w.aggregate(AggAvg)
		}
	}); got != 0 {
		t.Errorf("64 Observes and AVGs: %v allocations, want 0", got)
	}
}

// BenchmarkEventWindowObserve observes into a full window and evaluates
// an aggregate over it, as an event-based provider does per sample.
func BenchmarkEventWindowObserve(b *testing.B) {
	w := NewEventWindow(16)
	for i := 0; i < 16; i++ {
		w.Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(float64(i))
		benchAgg, _ = w.aggregate(AggAvg)
	}
}
