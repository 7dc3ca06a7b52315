package monitor

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"contory/internal/vclock"
)

func TestFailureRecoveryEvents(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	var events []Event
	m.OnEvent(func(e Event) { events = append(events, e) })

	m.ReportFailure("bt-gps-1", "link lost")
	if !m.Failed("bt-gps-1") {
		t.Fatal("resource not marked failed")
	}
	m.ReportFailure("bt-gps-1", "still down") // duplicate: no second event
	m.ReportRecovery("bt-gps-1")
	if m.Failed("bt-gps-1") {
		t.Fatal("resource still failed after recovery")
	}
	m.ReportRecovery("bt-gps-1") // not failed: no event

	if len(events) != 2 {
		t.Fatalf("events = %d (%v), want 2", len(events), events)
	}
	if events[0].Kind != EventFailure || events[0].Resource != "bt-gps-1" || events[0].Reason != "link lost" {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Kind != EventRecovery {
		t.Fatalf("event 1 = %+v", events[1])
	}
	if !events[0].At.Equal(vclock.Epoch) {
		t.Fatalf("event time = %v", events[0].At)
	}
}

func TestFailedResourcesSorted(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	m.ReportFailure("wifi", "")
	m.ReportFailure("bt-gps-1", "")
	got := m.FailedResources()
	if len(got) != 2 || got[0] != "bt-gps-1" || got[1] != "wifi" {
		t.Fatalf("FailedResources = %v", got)
	}
}

func TestBatteryLevelsAndLowPowerEvent(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	var events []Event
	m.OnEvent(func(e Event) { events = append(events, e) })

	if m.BatteryLevel() != LevelHigh {
		t.Fatalf("fresh battery level = %v", m.BatteryLevel())
	}
	m.SetBattery(0.5)
	if m.BatteryLevel() != LevelMedium {
		t.Fatalf("level at 0.5 = %v", m.BatteryLevel())
	}
	m.SetBattery(0.1)
	if m.BatteryLevel() != LevelLow {
		t.Fatalf("level at 0.1 = %v", m.BatteryLevel())
	}
	if len(events) != 1 || events[0].Kind != EventLowPower {
		t.Fatalf("events = %v, want one EventLowPower", events)
	}
	// Staying below the threshold does not re-emit.
	m.SetBattery(0.05)
	if len(events) != 1 {
		t.Fatalf("events re-emitted: %v", events)
	}
	// Clamping.
	m.SetBattery(-1)
	m.SetBattery(2)
	if m.BatteryLevel() != LevelHigh {
		t.Fatalf("clamped level = %v", m.BatteryLevel())
	}
}

func TestMemoryLevelsAndEvent(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	var events []Event
	m.OnEvent(func(e Event) { events = append(events, e) })

	if m.MemoryLevel() != LevelHigh {
		t.Fatalf("fresh memory level = %v", m.MemoryLevel())
	}
	m.SetMemory(6<<20, 9<<20) // ~67 %
	if m.MemoryLevel() != LevelMedium {
		t.Fatalf("level = %v", m.MemoryLevel())
	}
	m.SetMemory(8<<20, 9<<20) // ~89 %
	if m.MemoryLevel() != LevelLow {
		t.Fatalf("level = %v", m.MemoryLevel())
	}
	if len(events) != 1 || events[0].Kind != EventLowMemory {
		t.Fatalf("events = %v", events)
	}
	m.SetMemory(1, 0) // ignored
}

func TestAttributesSnapshot(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	m.SetBattery(0.1)
	m.ReportFailure("bt-gps-1", "x")
	attrs := m.Attributes()
	if attrs["batteryLevel"] != "low" {
		t.Fatalf("batteryLevel = %q", attrs["batteryLevel"])
	}
	if attrs["memoryLevel"] != "high" {
		t.Fatalf("memoryLevel = %q", attrs["memoryLevel"])
	}
	if attrs["failed:bt-gps-1"] != "true" {
		t.Fatalf("failed attr missing: %v", attrs)
	}
}

func TestEventsHistoryCopied(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	m.ReportFailure("x", "")
	evs := m.Events()
	if len(evs) != 1 {
		t.Fatalf("history = %v", evs)
	}
	evs[0].Resource = "mutated"
	if m.Events()[0].Resource != "x" {
		t.Fatal("Events exposes internal slice")
	}
}

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		EventFailure:   "failure",
		EventRecovery:  "recovery",
		EventLowPower:  "lowPower",
		EventLowMemory: "lowMemory",
		EventKind(99):  "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestOnEventCancel(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	var a, b int
	cancelA := m.OnEvent(func(Event) { a++ })
	m.OnEvent(func(Event) { b++ })

	m.ReportFailure("x", "")
	if a != 1 || b != 1 {
		t.Fatalf("a=%d b=%d after first event, want 1/1", a, b)
	}
	cancelA()
	cancelA() // idempotent
	m.ReportFailure("y", "")
	if a != 1 || b != 2 {
		t.Fatalf("a=%d b=%d after cancel, want 1/2", a, b)
	}
}

func TestFanOutRegistrationOrder(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	var order []int
	var cancels []func()
	for i := 0; i < 5; i++ {
		i := i
		cancels = append(cancels, m.OnEvent(func(Event) { order = append(order, i) }))
	}
	cancels[1]()
	cancels[3]()
	m.OnEvent(func(Event) { order = append(order, 5) })
	m.ReportFailure("x", "")
	want := []int{0, 2, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fan-out order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fan-out order = %v, want %v", order, want)
		}
	}
}

// TestFanOutUnderChurn races LowPower/LowMemory fan-out against listener
// subscribe/unsubscribe churn (meaningful under -race): a stable listener
// must see every threshold crossing regardless of concurrent churn, and a
// churned listener only sees events fanned out while it was registered.
func TestFanOutUnderChurn(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	const churners = 4
	var wg sync.WaitGroup

	var stable atomic.Int64
	m.OnEvent(func(e Event) {
		if e.Kind == EventLowPower || e.Kind == EventLowMemory {
			stable.Add(1)
		}
	})

	var churned atomic.Int64
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				cancel := m.OnEvent(func(Event) { churned.Add(1) })
				cancel()
				cancel() // idempotent under concurrency too
			}
		}()
	}

	// Emitter: oscillate across both thresholds so LowPower and LowMemory
	// keep firing while listeners churn.
	const rounds = 100
	for k := 0; k < rounds; k++ {
		m.SetBattery(0.5)
		m.SetBattery(0.1)
		m.SetMemory(1<<20, 9<<20)
		m.SetMemory(8<<20, 9<<20)
	}
	wg.Wait()
	if got := stable.Load(); got != 2*rounds {
		t.Fatalf("stable listener saw %d low-resource events, want %d", got, 2*rounds)
	}
	// Churned listeners cancel immediately after registering; each may only
	// have caught fan-outs snapshotted while registered.
	if got := churned.Load(); got > int64(churners*200*2*rounds) {
		t.Fatalf("churned listeners saw %d events", got)
	}
}

// A fan-out walks the listeners registered when it started: a listener
// cancelled by an earlier one during an emit still gets that event, one
// registered during it does not, and after the middle listener's cancel
// the rest keep firing in registration order.
func TestFanOutSnapshotAcrossCancel(t *testing.T) {
	clk := vclock.NewSimulator()
	m := New(clk)
	var order []string
	var cancelMiddle func()
	m.OnEvent(func(Event) {
		order = append(order, "first")
		if cancelMiddle != nil {
			cancelMiddle()
			cancelMiddle = nil
			m.OnEvent(func(Event) { order = append(order, "late") })
		}
	})
	cancelMiddle = m.OnEvent(func(Event) { order = append(order, "middle") })
	m.OnEvent(func(Event) { order = append(order, "last") })

	m.ReportFailure("x", "")
	if want := []string{"first", "middle", "last"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("emit during the cancel fanned out to %v, want %v", order, want)
	}
	order = nil
	m.ReportFailure("y", "")
	if want := []string{"first", "last", "late"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("emit after the cancel fanned out to %v, want %v", order, want)
	}
}
