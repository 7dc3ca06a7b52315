package vclock

import (
	"testing"
	"time"
)

// BenchmarkRunParallelUntil exercises the batch drain under the two
// workload shapes the fleet produces: lane-heavy (many device lanes, no
// global events — heap pops and lane grouping dominate) and barrier-heavy
// (a global event at every timestamp — flush/barrier transitions
// dominate). Both run the serial inline path and with a worker pool.
func BenchmarkRunParallelUntil(b *testing.B) {
	cases := []struct {
		name    string
		lanes   int
		barrier bool
		workers int
	}{
		{"lane-heavy/w1", 64, false, 1},
		{"lane-heavy/w4", 64, false, 4},
		{"barrier-heavy/w1", 8, true, 1},
		{"barrier-heavy/w4", 8, true, 4},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSimulator()
			for i := 0; i < bc.lanes; i++ {
				s.Lane(i).Every(time.Millisecond, func() {})
			}
			if bc.barrier {
				s.Every(time.Millisecond, func() {})
			}
			deadline := s.Now()
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deadline = deadline.Add(10 * time.Millisecond)
				st := s.RunParallelUntil(deadline, bc.workers)
				events += st.Events
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			}
		})
	}
}

// BenchmarkTimerStopChurn measures schedule-then-cancel churn: subscription
// timeouts and retry timers that are armed and stopped without ever firing.
// Stop must be an in-place heap removal plus free-list recycle, not a
// linear scan or a leaked queue entry.
func BenchmarkTimerStopChurn(b *testing.B) {
	s := NewSimulator()
	timers := make([]*Timer, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Duration(i%1000+1)*time.Millisecond, func() {})
		timers = append(timers, t)
		if len(timers) == cap(timers) {
			for _, tm := range timers {
				tm.Stop()
			}
			timers = timers[:0]
		}
	}
	b.StopTimer()
	for _, tm := range timers {
		tm.Stop()
	}
}

// TestDrainAllocs: once the event free list is warm, scheduling and
// draining cross-lane events costs no allocation per event: 1,000
// AfterFrom events spread over eight lanes, drained by one
// RunParallelUntil, allocate what 100 do, the drain call's fixed scratch.
// The drain runs on one worker: a worker pool's goroutines are made per
// drain.
func TestDrainAllocs(t *testing.T) {
	s := NewSimulator()
	noop := func() {}
	round := func(count int) func() {
		return func() {
			for i := 0; i < count; i++ {
				lane := int32(i % 8)
				s.AfterFrom(lane, lane, time.Duration(i+1)*time.Microsecond, noop)
			}
			s.RunParallelUntil(s.Now().Add(time.Second), 1)
		}
	}
	small := testing.AllocsPerRun(20, round(100))
	large := testing.AllocsPerRun(20, round(1000))
	if small != large {
		t.Fatalf("100 events: %v allocations per drain, 1,000 events: %v; want equal", small, large)
	}
	t.Logf("%v allocations per drain", small)
}
