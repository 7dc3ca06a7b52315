package draw

import (
	"math"
	"testing"
)

// A value is a function of (key, n) alone: streams drawn in any
// interleaving give each stream the sequence it gives when drawn alone,
// and the n-th value of a stream is Key(key, n).
func TestValueDependsOnlyOnKeyAndCounter(t *testing.T) {
	keys := []uint64{0, 1, 2, 42, Key(7, HashID("sm-p00042-7"), 3)}
	const n = 64
	alone := make([][]uint64, len(keys))
	for i, k := range keys {
		s := New(k)
		for j := 0; j < n; j++ {
			v := s.Uint64()
			if want := Key(k, uint64(j)); v != want {
				t.Fatalf("key %d value %d: %#x, Key gives %#x", k, j, v, want)
			}
			alone[i] = append(alone[i], v)
		}
	}
	for order := 0; order < 8; order++ {
		streams := make([]Stream, len(keys))
		for i, k := range keys {
			streams[i] = New(k)
		}
		// A different interleaving per order: a side stream picks which
		// stream draws next until every stream has drawn n values.
		pick := New(uint64(order) + 1000)
		got := make([][]uint64, len(keys))
		for left := n * len(keys); left > 0; {
			if i := pick.Intn(len(keys)); len(got[i]) < n {
				got[i] = append(got[i], streams[i].Uint64())
				left--
			}
		}
		for i := range keys {
			for j := range got[i] {
				if got[i][j] != alone[i][j] {
					t.Fatalf("order %d key %d value %d: %#x interleaved, %#x alone", order, keys[i], j, got[i][j], alone[i][j])
				}
			}
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	s := New(HashID("float"))
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean %.4f, want 0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("variance %.4f, want %.4f", variance, 1.0/12)
	}
}

// NormFloat64 is a standard normal: mean 0, variance 1, and 10 % of its
// mass beyond ±1.645 — the quantile radio's jitter model relies on.
func TestNormFloat64Moments(t *testing.T) {
	s := New(HashID("norm"))
	const n = 250000
	var sum, sq float64
	tail := 0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("NormFloat64 = %v", v)
		}
		sum += v
		sq += v * v
		if math.Abs(v) > 1.645 {
			tail++
		}
	}
	mean := sum / n
	variance := sq/n - mean*mean
	share := float64(tail) / n
	t.Logf("%d draws: mean %.4f, variance %.4f, |x| > 1.645 share %.4f", n, mean, variance, share)
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean %.4f, want 0", mean)
	}
	if math.Abs(variance-1) > 0.015 {
		t.Errorf("variance %.4f, want 1", variance)
	}
	if math.Abs(share-0.10) > 0.003 {
		t.Errorf("two-sided 1.645 tail %.4f, want 0.10", share)
	}
}

func TestIntnInRange(t *testing.T) {
	s := New(9)
	for _, n := range []int{1, 2, 3, 7, 1000, math.MaxInt32} {
		seen := make(map[int]bool)
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
			seen[v] = true
		}
		if n <= 7 && len(seen) != n {
			t.Errorf("Intn(%d) hit %d of %d values in 2000 draws", n, len(seen), n)
		}
	}
	if v := s.Int63n(math.MaxInt64); v < 0 {
		t.Fatalf("Int63n(MaxInt64) = %d", v)
	}
}

// Drawing allocates nothing.
func TestDrawAllocs(t *testing.T) {
	s := New(1)
	var sink float64
	if got := testing.AllocsPerRun(100, func() {
		k := Key(1, HashID("sm-p00001-1"), 2)
		sink += s.NormFloat64() + s.Float64() + float64(s.Intn(10)) + float64(k&1)
	}); got != 0 {
		t.Fatalf("%v allocations per draw, want 0", got)
	}
	_ = sink
}
