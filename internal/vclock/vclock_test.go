package vclock

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSimulatorStartsAtEpoch(t *testing.T) {
	s := NewSimulator()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
	if got := s.SinceEpoch(); got != 0 {
		t.Fatalf("SinceEpoch() = %v, want 0", got)
	}
}

func TestSimulatorAtCustomStart(t *testing.T) {
	start := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	s := NewSimulatorAt(start)
	s.Advance(time.Minute)
	if got := s.SinceEpoch(); got != time.Minute {
		t.Fatalf("SinceEpoch() = %v, want 1m", got)
	}
	if want := start.Add(time.Minute); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestAfterFiresAtScheduledTime(t *testing.T) {
	s := NewSimulator()
	var firedAt time.Time
	s.After(5*time.Second, func() { firedAt = s.Now() })
	s.Advance(10 * time.Second)
	want := Epoch.Add(5 * time.Second)
	if !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
	if want := Epoch.Add(10 * time.Second); !s.Now().Equal(want) {
		t.Fatalf("clock at %v, want %v", s.Now(), want)
	}
}

func TestAfterNegativeDelayRunsImmediately(t *testing.T) {
	s := NewSimulator()
	fired := false
	s.After(-time.Second, func() { fired = true })
	if err := s.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !fired {
		t.Fatal("callback did not fire")
	}
	if !s.Now().Equal(Epoch) {
		t.Fatalf("clock moved to %v on zero-delay event", s.Now())
	}
}

func TestStopPreventsFiring(t *testing.T) {
	s := NewSimulator()
	fired := false
	timer := s.After(time.Second, func() { fired = true })
	timer.Stop()
	timer.Stop() // a second Stop is harmless
	s.Advance(5 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEveryFiresPeriodically(t *testing.T) {
	s := NewSimulator()
	var times []time.Duration
	timer := s.Every(2*time.Second, func() {
		times = append(times, s.SinceEpoch())
	})
	s.Advance(7 * time.Second)
	timer.Stop()
	s.Advance(10 * time.Second)
	want := []time.Duration{2 * time.Second, 4 * time.Second, 6 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEveryStopFromWithinCallback(t *testing.T) {
	s := NewSimulator()
	count := 0
	var timer *Timer
	timer = s.Every(time.Second, func() {
		count++
		if count == 3 {
			timer.Stop()
		}
	})
	s.Advance(time.Minute)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEveryNonPositiveNeverFires(t *testing.T) {
	s := NewSimulator()
	timer := s.Every(0, func() { t.Fatal("fired") })
	timer.Stop() // harmless on a timer that never armed
	s.Advance(time.Hour)
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Advance(time.Second)
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events ran out of order: %v", order)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d events, want 10", len(order))
	}
}

func TestStepEmptyQueue(t *testing.T) {
	s := NewSimulator()
	if err := s.Step(); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("Step on empty queue = %v, want ErrNoEvents", err)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSimulator()
	var hits []time.Duration
	s.After(time.Second, func() {
		hits = append(hits, s.SinceEpoch())
		s.After(time.Second, func() {
			hits = append(hits, s.SinceEpoch())
		})
	})
	s.Advance(3 * time.Second)
	want := []time.Duration{time.Second, 2 * time.Second}
	if len(hits) != 2 || hits[0] != want[0] || hits[1] != want[1] {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
}

func TestAdvanceToDoesNotRewind(t *testing.T) {
	s := NewSimulator()
	s.Advance(time.Hour)
	s.AdvanceTo(Epoch) // earlier than now: must be a no-op
	if want := Epoch.Add(time.Hour); !s.Now().Equal(want) {
		t.Fatalf("clock rewound to %v", s.Now())
	}
}

func TestRunDrainsQueue(t *testing.T) {
	s := NewSimulator()
	count := 0
	for i := 1; i <= 100; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	n := s.Run(0)
	if n != 100 || count != 100 {
		t.Fatalf("Run executed %d events, callbacks %d; want 100/100", n, count)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", s.Pending())
	}
}

func TestRunRespectsMaxEvents(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 50; i++ {
		s.After(time.Millisecond, func() {})
	}
	if n := s.Run(10); n != 10 {
		t.Fatalf("Run(10) executed %d events", n)
	}
	if got := s.Pending(); got != 40 {
		t.Fatalf("Pending() = %d, want 40", got)
	}
}

func TestExecutedCounter(t *testing.T) {
	s := NewSimulator()
	s.After(time.Second, func() {})
	s.After(2*time.Second, func() {})
	s.Advance(time.Minute)
	if got := s.Executed(); got != 2 {
		t.Fatalf("Executed() = %d, want 2", got)
	}
}

// Property: events always execute in nondecreasing time order, regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSimulator()
		var fired []time.Time
		total := int(n%50) + 1
		for i := 0; i < total; i++ {
			d := time.Duration(rng.Intn(10_000)) * time.Millisecond
			s.After(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run(0)
		if len(fired) != total {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Advance(a) then Advance(b) lands at the same instant as
// Advance(a+b).
func TestAdvanceAdditiveProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		da := time.Duration(a) * time.Millisecond
		db := time.Duration(b) * time.Millisecond
		s1 := NewSimulator()
		s1.Advance(da)
		s1.Advance(db)
		s2 := NewSimulator()
		s2.Advance(da + db)
		return s1.Now().Equal(s2.Now())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
