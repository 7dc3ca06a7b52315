package vclock

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// Stopped timers must leave the heap immediately: a high-churn fleet stops
// thousands of query-expiry timers per virtual minute, and dead events
// lingering until their deadline would grow the queue unboundedly.
func TestStopRemovesEventFromHeap(t *testing.T) {
	s := NewSimulator()
	const n = 1000
	timers := make([]*Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, s.After(time.Hour, func() { t.Error("stopped timer fired") }))
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending() = %d before stopping, want %d", got, n)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after stopping %d timers, want 0", got, n)
	}
	s.Advance(2 * time.Hour)
	if got := s.Executed(); got != 0 {
		t.Fatalf("Executed() = %d, want 0", got)
	}
}

func TestStopRemovesPeriodicTimerFromHeap(t *testing.T) {
	s := NewSimulator()
	const n = 200
	timers := make([]*Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, s.Every(time.Minute, func() {}))
	}
	s.Advance(150 * time.Second) // two firings each; timers reschedule
	if got := s.Pending(); got != n {
		t.Fatalf("Pending() = %d mid-run, want %d", got, n)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after stopping periodic timers, want 0", got)
	}
}

// A periodic timer that fires and re-arms, then is stopped by a later
// event of the same instant, is recycled once: the free list must not hand
// its event object to two later timers.
func TestStopAfterRearmInSameInstant(t *testing.T) {
	s := NewSimulator()
	lane := s.Lane(0)
	periodic := lane.Every(time.Second, func() {})
	lane.After(time.Second, func() { periodic.Stop() })
	s.RunParallelUntil(s.Now().Add(time.Second), 1)
	var got []int
	for i := 0; i < 3; i++ {
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Advance(time.Second)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("callbacks ran %v, want [0 1 2]", got)
	}
}

// Interleaved stops must not corrupt heap ordering for surviving events.
func TestStopInterleavedKeepsOrder(t *testing.T) {
	s := NewSimulator()
	var timers []*Timer
	var fired []int
	for i := 0; i < 100; i++ {
		i := i
		timers = append(timers, s.After(time.Duration(i+1)*time.Second, func() {
			fired = append(fired, i)
		}))
	}
	for i, tm := range timers {
		if i%3 == 0 {
			tm.Stop()
		}
	}
	s.Advance(200 * time.Second)
	want := 0
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			continue
		}
		if want >= len(fired) || fired[want] != i {
			t.Fatalf("fired = %v; surviving timers out of order at %d", fired, i)
		}
		want++
	}
}

func TestLaneEventsKeepPerLaneOrder(t *testing.T) {
	s := NewSimulator()
	const lanes, perLane = 8, 50
	got := make([][]int, lanes)
	for i := 0; i < perLane; i++ {
		for l := 0; l < lanes; l++ {
			l, i := l, i
			s.Lane(l).After(time.Second, func() {
				got[l] = append(got[l], i)
			})
		}
	}
	s.RunParallelUntil(s.Now().Add(time.Minute), 4)
	for l := 0; l < lanes; l++ {
		if len(got[l]) != perLane {
			t.Fatalf("lane %d ran %d events, want %d", l, len(got[l]), perLane)
		}
		for i, v := range got[l] {
			if v != i {
				t.Fatalf("lane %d out of order: %v", l, got[l])
			}
		}
	}
}

// Global events are barriers: all lane events ordered before them complete
// first, none ordered after start until they return.
func TestGlobalEventsAreBarriers(t *testing.T) {
	s := NewSimulator()
	var mu sync.Mutex
	var log []string
	record := func(tag string) {
		mu.Lock()
		log = append(log, tag)
		mu.Unlock()
	}
	for l := 0; l < 4; l++ {
		l := l
		s.Lane(l).After(time.Second, func() { record(fmt.Sprintf("pre-%d", l)) })
	}
	s.After(time.Second, func() { record("barrier") })
	for l := 0; l < 4; l++ {
		l := l
		s.Lane(l).After(time.Second, func() { record(fmt.Sprintf("post-%d", l)) })
	}
	s.RunParallelUntil(s.Now().Add(2*time.Second), 4)
	if len(log) != 9 {
		t.Fatalf("ran %d events, want 9: %v", len(log), log)
	}
	// Global events sort before lane events at the same instant (GlobalLane
	// = -1 < any lane), so the barrier runs first; the two lane groups are
	// separated only if another barrier interposes. What we check here is
	// the structural guarantee: the barrier is not concurrent with anything.
	barrierAt := -1
	for i, tag := range log {
		if tag == "barrier" {
			barrierAt = i
		}
	}
	if barrierAt != 0 {
		t.Fatalf("barrier ran at position %d (global events order first): %v", barrierAt, log)
	}
}

// AfterFrom delivers into the execution lane while taking its ordering key
// from the origin lane (the message-passing primitive).
func TestAfterFromExecutesInTargetLane(t *testing.T) {
	s := NewSimulator()
	var got []string
	s.Lane(1).After(time.Second, func() {
		// Lane 1's sequential code sends a message delivered in lane 2.
		s.AfterFrom(1, 2, time.Second, func() { got = append(got, "delivered") })
	})
	s.Lane(2).After(2*time.Second, func() { got = append(got, "lane2-local") })
	s.RunParallelUntil(s.Now().Add(3*time.Second), 4)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2: %v", len(got), got)
	}
}

// AfterFrom on the global lane orders exactly like After: same-time
// events run in scheduling order, whichever call scheduled them.
func TestAfterFromGlobalOrdersLikeAfter(t *testing.T) {
	s := NewSimulator()
	var got []int
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			s.After(time.Second, func() { got = append(got, i) })
		} else {
			s.AfterFrom(GlobalLane, GlobalLane, time.Second, func() { got = append(got, i) })
		}
	}
	s.Run(0)
	if !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("order %v, want scheduling order", got)
	}
}

// The parallel runner must match the serial runner event-for-event: same
// callbacks, same virtual times, same per-lane order.
func TestParallelMatchesSerial(t *testing.T) {
	type rec struct {
		lane int
		id   int
		at   time.Duration
	}
	build := func(s *Simulator, out *[][]rec, lanes int) {
		*out = make([][]rec, lanes)
		for l := 0; l < lanes; l++ {
			l := l
			id := 0
			s.Lane(l).Every(time.Duration(l+1)*time.Second, func() {
				(*out)[l] = append((*out)[l], rec{l, id, s.SinceEpoch()})
				id++
				if id%5 == 0 {
					nid := id
					s.Lane(l).After(500*time.Millisecond, func() {
						(*out)[l] = append((*out)[l], rec{l, 1000 + nid, s.SinceEpoch()})
					})
				}
			})
		}
	}
	const lanes = 6
	var serial, par [][]rec

	s1 := NewSimulator()
	build(s1, &serial, lanes)
	s1.Advance(30 * time.Second)

	s2 := NewSimulator()
	build(s2, &par, lanes)
	s2.RunParallelUntil(s2.Now().Add(30*time.Second), 8)

	for l := 0; l < lanes; l++ {
		if len(serial[l]) != len(par[l]) {
			t.Fatalf("lane %d: serial %d events, parallel %d", l, len(serial[l]), len(par[l]))
		}
		for i := range serial[l] {
			if serial[l][i] != par[l][i] {
				t.Fatalf("lane %d event %d: serial %+v, parallel %+v", l, i, serial[l][i], par[l][i])
			}
		}
	}
	if s1.Executed() != s2.Executed() {
		t.Fatalf("Executed: serial %d, parallel %d", s1.Executed(), s2.Executed())
	}
}

// Two parallel runs with different worker counts must execute identically.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (uint64, BatchStats) {
		s := NewSimulator()
		for l := 0; l < 16; l++ {
			l := l
			n := 0
			s.Lane(l).Every(time.Duration(100+l)*time.Millisecond, func() {
				n++
				if n == 10 {
					s.Lane(l).After(time.Millisecond, func() {})
				}
			})
		}
		s.After(5*time.Second, func() {}) // one barrier mid-run
		st := s.RunParallelUntil(s.Now().Add(10*time.Second), workers)
		return s.Executed(), st
	}
	e1, st1 := run(1)
	e8, st8 := run(8)
	if e1 != e8 {
		t.Fatalf("Executed: 1 worker %d, 8 workers %d", e1, e8)
	}
	if st1 != st8 {
		t.Fatalf("BatchStats: 1 worker %+v, 8 workers %+v", st1, st8)
	}
}

// Events scheduled during a batch at the same instant drain before the
// clock advances (zero-delay sends stay at their timestamp).
func TestSameInstantReentrancyDrainsBeforeAdvance(t *testing.T) {
	s := NewSimulator()
	var at []time.Duration
	s.Lane(0).After(time.Second, func() {
		s.Lane(0).After(0, func() { at = append(at, s.SinceEpoch()) })
	})
	s.RunParallelUntil(s.Now().Add(2*time.Second), 2)
	if len(at) != 1 || at[0] != time.Second {
		t.Fatalf("reentrant zero-delay event at %v, want [1s]", at)
	}
}

func TestRunParallelAdvancesClockToDeadline(t *testing.T) {
	s := NewSimulator()
	s.RunParallelUntil(s.Now().Add(time.Minute), 2)
	if got := s.SinceEpoch(); got != time.Minute {
		t.Fatalf("SinceEpoch() = %v after empty parallel run, want 1m", got)
	}
}

// Post draws the ordering key After would: a script that schedules through
// After and one that swaps a varying share of those calls for Post run
// each lane's callbacks in the same order at the same times, on the global
// lane and on lane handles, serially and in parallel.
func TestPostOrdersLikeAfter(t *testing.T) {
	type rec struct {
		id int
		at time.Duration
	}
	// run returns each clock's callbacks in execution order: a clock's
	// events run on its own lane, so each list has one writer.
	run := func(post func(i int) bool, parallel bool) [4][]rec {
		s := NewSimulator()
		var got [4][]rec
		clocks := [4]Clock{s, s.Lane(0), s.Lane(1), s.Lane(2)}
		var schedule func(i, depth int)
		schedule = func(i, depth int) {
			k := i % len(clocks)
			d := time.Duration(i%3) * time.Second // ties across lanes and calls
			fn := func() {
				got[k] = append(got[k], rec{i, s.SinceEpoch()})
				if depth < 2 {
					schedule(i*7+depth+1, depth+1)
				}
			}
			if post(i) {
				clocks[k].Post(d, fn)
			} else {
				clocks[k].After(d, fn)
			}
		}
		for i := 0; i < 40; i++ {
			schedule(i, 0)
		}
		if parallel {
			s.RunParallelUntil(s.Now().Add(10*time.Second), 4)
		} else {
			s.Advance(10 * time.Second)
		}
		return got
	}
	for _, parallel := range []bool{false, true} {
		want := run(func(int) bool { return false }, parallel)
		for name, post := range map[string]func(int) bool{
			"all":  func(int) bool { return true },
			"odd":  func(i int) bool { return i%2 == 1 },
			"some": func(i int) bool { return i%5 < 2 },
		} {
			got := run(post, parallel)
			for k := range got {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("parallel=%v, Post for %s ids, clock %d: order %v, After order %v",
						parallel, name, k, got[k], want[k])
				}
			}
		}
	}
}

// Scheduling with Post allocates nothing once the event free list is
// warm: it makes no Timer.
func TestPostAllocs(t *testing.T) {
	s := NewSimulator()
	lane := s.Lane(3)
	noop := func() {}
	round := func() {
		s.Post(time.Millisecond, noop)
		lane.Post(time.Millisecond, noop)
		s.Advance(time.Millisecond)
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("Post allocates %v times per round, want 0", got)
	}
}
